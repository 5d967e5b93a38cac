//! Slice construction: k routing instances over one topology (§3.1).
//!
//! A slice is one converged routing instance — a perturbed weight
//! vector and the forwarding plane it induces. A [`Splicing`] is the set
//! of `k` slices a deployment runs. By convention (matching the paper's
//! "k = 1 (normal)" baseline) slice 0 uses the *unperturbed* base weights,
//! so a single-slice splicing is exactly ordinary shortest-path routing;
//! slices 1..k are independently perturbed.
//!
//! A deployment of a strategy with delta repair carries its planes' SPF
//! distances beside the arena, from its build on, and every repair reads
//! and carries them forward ([`Splicing::distances`]); a control plane's
//! are dropped when its event loop exits. A repair batch reaches each
//! dirty plane as one delta ([`PlaneMut::patch`]): its failures,
//! restores and reweights of either sign in one load and one relaxation
//! per changed column, whose moved entries alone are written back.

use crate::perturb::PerturbationKind;
use crate::strategy::{observed_fill, with_spf_workspace, StrategyKind};
use splice_graph::dijkstra::{validate_weights, SpfDelta, SpfWorkspace, WeightError};
use splice_graph::traversal::reverse_reachable;
use splice_graph::{EdgeId, EdgeMask, Graph, NodeId};
use splice_routing::arena::{DistanceMemo, PlaneMut, RepairStats, SpliceFib};
use splice_routing::spf::{FlightEvent, SpfTelemetry};
use std::sync::Arc;
use std::time::Instant;

/// A topology or weight event a deployed splicing must absorb without a
/// full rebuild — the reconvergence workload of §4.2's dynamics story.
/// Links go down and come back up; both directions are deltas.
#[derive(Clone, Debug, PartialEq)]
pub enum RepairEvent {
    /// One link went down (in every slice — failures are physical).
    LinkFailure(EdgeId),
    /// Several links went down at once (e.g. a shared-risk group).
    LinkSetFailure(Vec<EdgeId>),
    /// A router went down: every incident link fails.
    NodeFailure(NodeId),
    /// One link came back up (in every slice). Restoring a link that is
    /// already up is a no-op.
    LinkRestore(EdgeId),
    /// One slice's weight for `edge` changed to `new_weight` — the
    /// control-plane event behind traffic engineering and perturbation
    /// re-draws. Weight changes are per-slice; other slices keep routing
    /// on their own vectors.
    SliceReweight {
        /// The slice whose vector changes.
        slice: usize,
        /// The reweighted link.
        edge: EdgeId,
        /// Its new weight (must be positive and finite).
        new_weight: f64,
    },
}

impl RepairEvent {
    /// A static label for the event class — the `name` flight-recorder
    /// entries and log lines file this event under.
    pub fn kind_label(&self) -> &'static str {
        match self {
            RepairEvent::LinkFailure(_) => "link_failure",
            RepairEvent::LinkSetFailure(_) => "link_set_failure",
            RepairEvent::NodeFailure(_) => "node_failure",
            RepairEvent::LinkRestore(_) => "link_restore",
            RepairEvent::SliceReweight { .. } => "slice_reweight",
        }
    }
}

/// Configuration for building a [`Splicing`].
#[derive(Clone, Debug, PartialEq)]
pub struct SplicingConfig {
    /// Number of slices `k ≥ 1`.
    pub k: usize,
    /// Perturbation applied to slices 1..k; slice 0 is always the base
    /// weights (the paper's baseline convention). Only the perturbed-SPF
    /// strategy reads it — tree strategies own every slice.
    pub perturbation: PerturbationKind,
    /// How each slice's forwarding columns are constructed.
    pub strategy: StrategyKind,
}

impl SplicingConfig {
    /// The paper's headline configuration: degree-based `Weight(a, b)`.
    pub fn degree_based(k: usize, a: f64, b: f64) -> Self {
        SplicingConfig {
            k,
            perturbation: PerturbationKind::degree_based(a, b),
            strategy: StrategyKind::PerturbedSpf,
        }
    }

    /// Uniform perturbation with the given strength.
    pub fn uniform(k: usize, strength: f64) -> Self {
        SplicingConfig {
            k,
            perturbation: PerturbationKind::uniform(strength),
            strategy: StrategyKind::PerturbedSpf,
        }
    }

    /// The same config with a different slice-construction strategy.
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }
}

/// A full splicing deployment: `k` slices over one graph, with all
/// forwarding state in one flat [`SpliceFib`] arena.
///
/// The arena and the weight vectors (each slice's behind its own `Arc`,
/// so a reweight copies only the vectors it changes) are shared behind
/// `Arc`s, so cloning
/// a `Splicing` — and, crucially, taking a [`Splicing::prefix`] view — is
/// O(1) and copies no forwarding state.
/// A strategy with delta repair also carries its planes' SPF distances,
/// shared the same way ([`Splicing::distances`]).
#[derive(Clone, Debug)]
pub struct Splicing {
    /// Slices visible through this handle (≤ planes built in `fib`).
    k: usize,
    /// Per-slice weight vectors for every *built* plane (shared).
    weights: Arc<[Arc<Vec<f64>>]>,
    /// The flat forwarding-state arena (shared).
    fib: Arc<SpliceFib>,
    /// Failed-link set the arena's state reflects (all-up for a fresh
    /// build; [`Splicing::repair`] grows it on failures and shrinks it
    /// on restores).
    failed: Arc<EdgeMask>,
    /// How the planes were constructed — consulted by [`Splicing::repair`]
    /// to choose delta-patching vs masked rebuild.
    strategy: StrategyKind,
    /// The build seed, kept so rebuild-only strategies can regenerate a
    /// slice's randomness (trees) deterministically during repair.
    seed: u64,
    /// SPF distances of the arena's planes (shared); see
    /// [`Splicing::distances`].
    dist: Option<Arc<DistanceMemo>>,
}

impl Splicing {
    /// Assemble a deployment from explicit state: per-slice weight
    /// vectors, a pre-populated arena, and the failure mask that arena
    /// is meant to reflect.
    ///
    /// [`Splicing::build`] and [`Splicing::repair`] keep these three
    /// consistent by construction; here that is the caller's job.
    /// `splice-testkit` uses it to break the consistency on purpose —
    /// injecting corrupted forwarding state (e.g. a slice whose columns
    /// skipped a repair) to prove its oracles catch it. The result
    /// carries SPF-shaped state: repairs use the perturbed-SPF delta
    /// engine. It carries no distances, so its first repair derives them
    /// by folding the installed parent chains.
    ///
    /// # Panics
    /// Panics when the shapes disagree: no slices, mismatched
    /// weight-vector lengths, or an arena of a different `k`/`n`.
    pub fn from_parts(weights: Vec<Vec<f64>>, fib: SpliceFib, failed: EdgeMask) -> Splicing {
        assert!(!weights.is_empty(), "need at least one slice");
        assert_eq!(weights.len(), fib.k(), "weight vectors vs arena planes");
        let m = failed.len();
        for (i, w) in weights.iter().enumerate() {
            assert_eq!(w.len(), m, "slice {i} weight length vs failure mask");
        }
        Splicing {
            k: weights.len(),
            weights: weights.into_iter().map(Arc::new).collect(),
            fib: Arc::new(fib),
            failed: Arc::new(failed),
            strategy: StrategyKind::PerturbedSpf,
            seed: 0,
            dist: None,
        }
    }

    /// Build `cfg.k` slices over `g`, deterministically from `seed`.
    ///
    /// Each perturbed slice draws from its own seeded RNG stream, so
    /// changing `k` does not change the weights of lower-numbered slices —
    /// the property the paper's incremental-k reliability methodology
    /// needs ("we fail the same set of links for different values of k").
    ///
    /// # Panics
    /// Panics if `cfg.k == 0` or a perturbation produces an invalid
    /// weight vector (the [`WeightError`] is the panic message).
    pub fn build(g: &Graph, cfg: &SplicingConfig, seed: u64) -> Splicing {
        Splicing::build_with_telemetry(g, cfg, seed, None)
    }

    /// [`Splicing::build`] with optional per-slice SPF timing and arena
    /// state-size accounting. Each slice is produced by the configured
    /// [`StrategyKind`]: its weights by [`StrategyKind::slice_weights`],
    /// its plane by [`StrategyKind::fill_slice`]; for the default
    /// perturbed-SPF strategy all k·n destination-rooted Dijkstras share
    /// one workspace and emit directly into the arena.
    ///
    /// Telemetry is observation only: the perturbation RNG streams are
    /// untouched, so the resulting slices are bit-identical to an
    /// untimed build with the same seed.
    ///
    /// # Panics
    /// As [`Splicing::build`].
    pub fn build_with_telemetry(
        g: &Graph,
        cfg: &SplicingConfig,
        seed: u64,
        telemetry: Option<&SpfTelemetry>,
    ) -> Splicing {
        let sp = Splicing::try_assemble(g, cfg.k, cfg.strategy, seed, telemetry, |slice, _| {
            cfg.strategy.slice_weights(g, cfg, slice, seed)
        })
        .unwrap_or_else(|e| panic!("{e}"));
        if let Some(tel) = telemetry {
            tel.arena_bytes.record(sp.fib.state_bytes() as u64);
        }
        sp
    }

    /// Build a deployment from explicit per-slice weight vectors — for
    /// callers whose slices come from something other than random
    /// perturbation (e.g. overlay routing metrics, §5's "combine overlay
    /// networks that use independent metrics").
    pub fn from_weight_vectors(g: &Graph, weight_vectors: Vec<Vec<f64>>) -> Splicing {
        match Splicing::try_from_weight_vectors(g, weight_vectors) {
            Ok(sp) => sp,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Splicing::from_weight_vectors`] with weight validation surfaced
    /// as a typed error.
    pub fn try_from_weight_vectors(
        g: &Graph,
        weight_vectors: Vec<Vec<f64>>,
    ) -> Result<Splicing, WeightError> {
        let k = weight_vectors.len();
        let mut vectors = weight_vectors.into_iter();
        Splicing::try_assemble(g, k, StrategyKind::PerturbedSpf, 0, None, |slice, _| {
            let weights = vectors.next().expect("one vector per slice");
            assert_eq!(weights.len(), g.edge_count(), "slice {slice} weight length");
            weights
        })
    }

    /// The one per-slice assembly loop behind every constructor: for each
    /// slice in order, `weights(slice, planes_so_far)` produces its vector
    /// (it may read the planes already filled), which is validated, filled
    /// into plane `slice` by `strategy` over the all-up graph, and kept.
    /// A strategy with delta repair records each plane's distances in the
    /// same fill.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub(crate) fn try_assemble(
        g: &Graph,
        k: usize,
        strategy: StrategyKind,
        seed: u64,
        telemetry: Option<&SpfTelemetry>,
        mut weights: impl FnMut(usize, &SpliceFib) -> Vec<f64>,
    ) -> Result<Splicing, WeightError> {
        assert!(k >= 1, "need at least one slice");
        let mut fib = SpliceFib::for_graph(k, g);
        let mut dist = strategy
            .supports_delta_repair()
            .then(|| DistanceMemo::new(k, g.node_count()));
        let mut vectors = Vec::with_capacity(k);
        let all_up = EdgeMask::all_up(g.edge_count());
        with_spf_workspace(|ws| -> Result<(), WeightError> {
            for slice in 0..k {
                let w = weights(slice, &fib);
                validate_weights(g, &w)?;
                let (plane, d) = (&mut fib.plane_mut(slice), dist.as_mut());
                let d = d.map(|d| d.plane_mut(slice));
                observed_fill(
                    strategy, g, slice, seed, &w, &all_up, ws, plane, d, telemetry,
                );
                vectors.push(Arc::new(w));
            }
            Ok(())
        })?;
        Ok(Splicing {
            k,
            weights: vectors.into(),
            fib: Arc::new(fib),
            failed: Arc::new(all_up),
            strategy,
            seed,
            dist: dist.map(Arc::new),
        })
    }

    /// Number of slices.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// A deployment consisting of just the first `k` slices. Because slice
    /// weights are independent of `k`, this is exactly what building with
    /// a smaller `k` would have produced — the incremental-k methodology's
    /// workhorse.
    ///
    /// This is a zero-copy *view*: a k-prefix is literally the first k
    /// planes of the shared arena, so per-trial prefix loops in the
    /// Monte-Carlo experiments cost a few `Arc` clones, not a deep copy.
    /// The view shares the distances too, and a repair of it carries
    /// exactly its `k` planes' worth.
    pub fn prefix(&self, k: usize) -> Splicing {
        assert!(k >= 1 && k <= self.k());
        Splicing { k, ..self.clone() }
    }

    /// How this deployment's slices were constructed.
    #[inline]
    pub fn strategy(&self) -> StrategyKind {
        self.strategy
    }

    /// The seed the deployment was built from (0 for assembled-from-parts
    /// deployments, whose randomness lived outside the builder).
    #[inline]
    pub fn build_seed(&self) -> u64 {
        self.seed
    }

    /// The failed-link set this deployment's forwarding state reflects:
    /// all-up after a fresh build, growing as [`Splicing::repair`]
    /// absorbs failures and shrinking as it absorbs restores.
    #[inline]
    pub fn failed_mask(&self) -> &EdgeMask {
        &self.failed
    }

    /// The SPF distances of this deployment's planes, one per
    /// `(slice, router, dst)` entry. The build's fill records them, and
    /// every delta repair reads them and hands its result what it
    /// computed, so no repair re-derives them. They live beside the
    /// arena, so published snapshots never carry them. `None` for a
    /// strategy without delta repair, for a [`Splicing::from_parts`]
    /// deployment before its first repair, and for a control plane's once
    /// its loop has exited. A prefix view's may hold more planes than
    /// [`Splicing::k`], as its arena does.
    pub fn distances(&self) -> Option<&DistanceMemo> {
        self.dist.as_deref()
    }

    /// Let go of the distances (a running control plane's, once its loop
    /// has exited); a later repair derives them again.
    pub(crate) fn drop_distances(&mut self) {
        self.dist = None;
    }

    /// Absorb one topology or weight event: [`Splicing::repair_batch`]
    /// on a batch of one.
    ///
    /// # Panics
    /// Panics on an invalid reweight (non-positive/non-finite weight or
    /// out-of-range slice); see [`Splicing::try_repair_batch_recycling`]
    /// for the typed error.
    pub fn repair(&self, g: &Graph, event: &RepairEvent) -> Splicing {
        self.repair_batch(g, std::slice::from_ref(event))
    }

    /// Absorb a batch of repair events in one coalesced pass, panicking
    /// on an invalid reweight — the convenience form of
    /// [`Splicing::try_repair_batch_recycling`] without telemetry or a
    /// recycled arena.
    ///
    /// # Panics
    /// Panics on an invalid reweight; the batch is atomic — nothing is
    /// applied on error.
    pub fn repair_batch(&self, g: &Graph, events: &[RepairEvent]) -> Splicing {
        match self.try_repair_batch_recycling(g, events, None, None) {
            Ok((repaired, _)) => repaired,
            Err(e) => panic!("{e}"),
        }
    }

    /// The repair engine: absorb a batch of topology and weight events by
    /// incrementally repairing the affected slice planes — delta-SPF
    /// instead of the k·n full Dijkstras a rebuild costs.
    ///
    /// The returned deployment starts from a plane-level copy of this
    /// one's arena (no shortest-path work) and rewrites only the
    /// destination columns the batch can have touched; every other column
    /// is carried over byte-identical. A plane the pass rebuilds whole (a
    /// dirty plane of a strategy without delta repair) is left out of the
    /// copy, since the rebuild overwrites every entry. The batch is first
    /// coalesced: failures and restores are folded, in order, into one
    /// net mask change (a fail/restore pair on one link cancels before
    /// any SPF runs) and reweights dedup per `(slice, edge)`, each a raise
    /// or a cut by its final value. Each dirty slice then gets one delta
    /// repair ([`PlaneMut::patch`]), which loads each column it changes
    /// once, repairs it in one relaxation under the final state and
    /// writes back only the entries that relaxation reset or moved. A
    /// strategy without delta repair gets one masked
    /// rebuild at the final state instead. The planes are repaired one
    /// after another on the calling thread with its warm workspace — no
    /// thread is spawned. Also returned: what the repair did — columns
    /// patched vs proven untouched and the total re-relaxed frontier,
    /// folded across slices.
    ///
    /// The result is bit-identical to building from scratch on the
    /// post-batch topology, and therefore to absorbing the events one
    /// batch of one at a time (property-tested across every strategy):
    /// each repair leaves a plane equal to a masked rebuild at the final
    /// state, and the deterministic tie-break makes parents a pure
    /// function of exact distances, so any event order that ends at the
    /// same final (weights, mask) ends at the same bytes. Batches
    /// stack: each starts from the mask the last one ended on (see
    /// [`Splicing::failed_mask`]), which failures grow and restores
    /// shrink.
    ///
    /// An empty or fully-absorbed batch (re-failing already-failed links,
    /// restoring links that are up, a link failed and restored within the
    /// batch) returns a deployment sharing this one's arena — no copy, no
    /// SPF work.
    ///
    /// On `Err` nothing has been applied: every reweight is validated up
    /// front, so the batch is atomic.
    ///
    /// `recycle` is the mutable-owner path for a long-running control
    /// plane. Without it every repair starts from a fresh `k·n²` arena.
    /// A daemon that owns its deployment can instead hand back a
    /// *retired* arena (a superseded snapshot no reader holds anymore):
    /// when its shape matches, the copied planes overwrite it in place
    /// ([`SpliceFib::copy_planes_from`]) and no allocation happens. A
    /// mismatched or absent spare falls back to a fresh arena — the
    /// result is bit-identical either way, whatever the spare held. A
    /// no-op batch returns the spare unused (dropped), since the result
    /// shares this deployment's arena.
    ///
    /// Delta repairs load this deployment's distances and write what they
    /// compute into a copy, which the result carries. The control plane
    /// runs the same engine on a deployment it holds alone, in place.
    pub fn try_repair_batch_recycling(
        &self,
        g: &Graph,
        events: &[RepairEvent],
        telemetry: Option<&SpfTelemetry>,
        recycle: Option<SpliceFib>,
    ) -> Result<(Splicing, RepairStats), WeightError> {
        let mut repaired = self.clone();
        let stats = repaired.repair_in_place(g, events, telemetry, recycle)?;
        Ok((repaired, stats))
    }

    /// The repair engine behind [`Splicing::try_repair_batch_recycling`]:
    /// turn `self` into the post-batch deployment (unchanged on `Err`).
    pub(crate) fn repair_in_place(
        &mut self,
        g: &Graph,
        events: &[RepairEvent],
        telemetry: Option<&SpfTelemetry>,
        recycle: Option<SpliceFib>,
    ) -> Result<RepairStats, WeightError> {
        // Validate the whole batch before touching anything.
        for event in events {
            if let RepairEvent::SliceReweight {
                slice,
                edge,
                new_weight,
            } = event
            {
                assert!(
                    *slice < self.k,
                    "slice {slice} out of range (k = {})",
                    self.k
                );
                if !(new_weight.is_finite() && *new_weight > 0.0) {
                    return Err(WeightError::BadWeight {
                        edge: *edge,
                        value: *new_weight,
                    });
                }
            }
        }

        // Coalesce. The mask is tracked through the batch in order (a
        // failure sets a bit, a restore clears it), so only its net
        // change reaches SPF: a fail/restore pair on one link cancels
        // here. Reweights keep first-occurrence order per slice and only
        // their final value — intermediate values are unobservable in
        // the result.
        let mut mask = (*self.failed).clone();
        let mut reweighted: Vec<Vec<EdgeId>> = vec![Vec::new(); self.k];
        let mut final_weights: Option<Vec<Arc<Vec<f64>>>> = None;
        for event in events {
            match event {
                RepairEvent::LinkFailure(e) => mask.fail(*e),
                RepairEvent::LinkSetFailure(es) => es.iter().for_each(|e| mask.fail(*e)),
                RepairEvent::NodeFailure(n) => {
                    g.neighbors(*n).iter().for_each(|&(_, e)| mask.fail(e))
                }
                RepairEvent::LinkRestore(e) => mask.restore(*e),
                RepairEvent::SliceReweight {
                    slice,
                    edge,
                    new_weight,
                } => {
                    let w = final_weights.get_or_insert_with(|| self.weights.to_vec());
                    if !reweighted[*slice].contains(edge) {
                        reweighted[*slice].push(*edge);
                    }
                    Arc::make_mut(&mut w[*slice])[edge.index()] = *new_weight;
                }
            }
        }
        let newly: Vec<EdgeId> = mask
            .failed_edges()
            .filter(|&e| self.failed.is_up(e))
            .collect();
        let restored: Vec<EdgeId> = self
            .failed
            .failed_edges()
            .filter(|&e| mask.is_up(e))
            .collect();
        let mask_changed = !newly.is_empty() || !restored.is_empty();

        if let Some(flight) = telemetry.and_then(|t| t.flight.as_ref()) {
            flight.record(
                FlightEvent::new("repair_event", "batch")
                    .field("events", events.len() as u64)
                    .field("links", newly.len() as u64)
                    .field("restored", restored.len() as u64),
            );
        }

        if !mask_changed && final_weights.is_none() {
            // Nothing survived coalescing: the deployment stands as it is.
            return Ok(RepairStats::default());
        }
        let mut dist = self
            .strategy
            .supports_delta_repair()
            .then(|| self.owned_distances(g));

        let mut delta = BatchDelta::new(&mask, &newly, &restored, &reweighted);

        // A slice is dirty when the batch changed the topology (every
        // plane shares the mask) or it was reweighted. A strategy without
        // delta repair rebuilds a dirty plane whole, so that plane is not
        // copied first; every other plane is, and clean planes ride along
        // untouched from the copy.
        let dirty = |slice: usize| mask_changed || !reweighted[slice].is_empty();
        let rebuilt = |slice| dirty(slice) && !self.strategy.supports_delta_repair();
        let mut fib = match recycle {
            Some(spare) if spare.k() == self.k && spare.n() == self.fib.n() => spare,
            _ => SpliceFib::empty(self.k, self.fib.n()),
        };
        fib.copy_planes_from(&self.fib, |slice| !rebuilt(slice));
        // Dirty planes are repaired here, on the calling thread, in slice
        // order: the control plane runs beside the forwarding workers on
        // one core, so there is no idle core to fan them out to.
        let mut stats = RepairStats::default();
        with_spf_workspace(|ws| {
            for (slice, mut plane) in fib.planes_mut().into_iter().enumerate() {
                if !dirty(slice) {
                    continue;
                }
                let base_weights = &self.weights[slice][..];
                let final_weights = final_weights
                    .as_ref()
                    .map_or(base_weights, |w| &w[slice][..]);
                stats.absorb(repair_plane_batched(
                    g,
                    slice,
                    &mut plane,
                    dist.as_mut().map(|d| d.plane_mut(slice)),
                    self.strategy,
                    self.seed,
                    &delta.plane(base_weights, final_weights, &reweighted[slice]),
                    ws,
                    telemetry,
                ));
            }
        });
        if let Some(w) = final_weights {
            self.weights = w.into();
        }
        self.fib = Arc::new(fib);
        if mask_changed {
            self.failed = Arc::new(mask);
        }
        self.dist = dist.map(Arc::new);
        Ok(stats)
    }

    /// The distances for a repair to write: moved out when no other
    /// handle shares them, else copied (a prefix view's first `k` planes),
    /// and folded from the installed parent chains when there are none.
    fn owned_distances(&mut self, g: &Graph) -> DistanceMemo {
        match self.dist.take().map(Arc::try_unwrap) {
            Some(Ok(memo)) if memo.k() == self.k => memo,
            Some(Ok(memo)) => memo.clone_prefix(self.k),
            Some(Err(shared)) => shared.clone_prefix(self.k),
            None => {
                let weights: Vec<&[f64]> = (0..self.k).map(|s| self.weights(s)).collect();
                DistanceMemo::fold(g, &self.fib, &weights)
            }
        }
    }

    /// The weight vector of `slice`.
    #[inline]
    pub fn weights(&self, slice: usize) -> &[f64] {
        assert!(
            slice < self.k,
            "slice {slice} out of range (k = {})",
            self.k
        );
        &self.weights[slice]
    }

    /// The shared flat FIB arena. Note the arena may hold more planes
    /// than [`Splicing::k`] when `self` is a prefix view — consumers must
    /// bound slice indices by `k()`, not by the arena's plane count.
    #[inline]
    pub fn arena(&self) -> &Arc<SpliceFib> {
        &self.fib
    }

    /// Forwarding-state footprint of this deployment in bytes: `k` planes
    /// of the arena — the measured quantity behind §4.2's "state grows
    /// linearly in k".
    pub fn state_bytes(&self) -> usize {
        self.k * self.fib.plane_bytes()
    }

    /// Logical control-plane state in bytes: what the construction
    /// actually has to disseminate, as accounted by the strategy. For
    /// perturbed-SPF this equals [`Splicing::state_bytes`] (a dense
    /// next-hop matrix per slice); tree splicers carry one parent pair
    /// per node per slice, so this is the O(k·n) number the
    /// state-vs-diversity tradeoff study compares against.
    pub fn logical_state_bytes(&self) -> usize {
        self.k * self.strategy.slice_state_bytes(self.fib.n())
    }

    /// Installed FIB entries across this deployment's `k` slices (the
    /// entry-count state metric).
    pub fn total_state(&self) -> usize {
        self.fib.installed(self.k)
    }

    /// Next hop and outgoing edge of `node` toward `dst` in `slice`.
    #[inline]
    pub fn next_hop(&self, slice: usize, node: NodeId, dst: NodeId) -> Option<(NodeId, EdgeId)> {
        debug_assert!(slice < self.k, "slice {slice} out of range");
        self.fib.lookup(slice, node, dst)
    }

    /// Successor sets toward `dst` using the first `k_prefix` slices,
    /// skipping next hops whose outgoing link is failed in `mask`:
    /// `succ[u]` = distinct usable next hops of `u`.
    ///
    /// This directed structure *is* the spliced graph for destination
    /// `dst` — union of the `k` trees rooted at `dst` (§4.2).
    pub fn successors_toward(
        &self,
        dst: NodeId,
        k_prefix: usize,
        mask: &EdgeMask,
    ) -> Vec<Vec<NodeId>> {
        assert!(k_prefix >= 1 && k_prefix <= self.k());
        let n = self.fib.n();
        let mut succ: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for slice in 0..k_prefix {
            for (u, s) in succ.iter_mut().enumerate() {
                if let Some((nh, e)) = self.fib.lookup(slice, NodeId(u as u32), dst) {
                    if mask.is_up(e) && !s.contains(&nh) {
                        s.push(nh);
                    }
                }
            }
        }
        succ
    }

    /// Which nodes can still deliver to `dst` through *some* sequence of
    /// slice choices, using the first `k_prefix` slices under `mask`.
    pub fn reachable_to(&self, dst: NodeId, k_prefix: usize, mask: &EdgeMask) -> Vec<bool> {
        let succ = self.successors_toward(dst, k_prefix, mask);
        reverse_reachable(&succ, dst)
    }

    /// Count ordered `(s, t)` pairs (s ≠ t) that splicing with the first
    /// `k_prefix` slices *cannot* connect under `mask` — the quantity
    /// Figure 3 plots (before normalization). Uses the *directed*
    /// (operationally exact) semantics; see [`Self::union_disconnected_pairs`]
    /// for the paper's union-graph accounting.
    pub fn disconnected_pairs(&self, k_prefix: usize, mask: &EdgeMask) -> usize {
        let n = self.fib.n();
        let mut disconnected = 0;
        for t in 0..n as u32 {
            let reach = self.reachable_to(NodeId(t), k_prefix, mask);
            disconnected += reach.iter().filter(|&&r| !r).count();
            // `reach[t]` is always true and t==t is not a pair, so the
            // count above is exactly over s != t.
        }
        disconnected
    }

    /// Which nodes are connected to `dst` in the **undirected union** of
    /// the first `k_prefix` trees rooted at `dst`, minus failed edges.
    ///
    /// This is the spliced-graph formulation the paper's §4.2 and
    /// Theorem A.1 analyze ("taking the union of k link-perturbed
    /// shortest-path trees", "the connectivity of H"): tree edges form an
    /// undirected subgraph whose connectivity is compared against the
    /// full graph's. It upper-bounds what hop-by-hop forwarding can
    /// achieve (see [`Self::reachable_to`] for the directed semantics).
    pub fn union_reachable_to(&self, dst: NodeId, k_prefix: usize, mask: &EdgeMask) -> Vec<bool> {
        assert!(k_prefix >= 1 && k_prefix <= self.k());
        let n = self.fib.n();
        // Adjacency restricted to surviving union-tree edges.
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for slice in 0..k_prefix {
            for u in 0..n {
                if let Some((parent, e)) = self.fib.lookup(slice, NodeId(u as u32), dst) {
                    if mask.is_up(e) {
                        adj[u].push(parent);
                        adj[parent.index()].push(NodeId(u as u32));
                    }
                }
            }
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[dst.index()] = true;
        queue.push_back(dst);
        while let Some(v) = queue.pop_front() {
            for &w in &adj[v.index()] {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    queue.push_back(w);
                }
            }
        }
        seen
    }

    /// [`Self::disconnected_pairs`] under the paper's undirected
    /// union-graph semantics.
    pub fn union_disconnected_pairs(&self, k_prefix: usize, mask: &EdgeMask) -> usize {
        let n = self.fib.n();
        let mut disconnected = 0;
        for t in 0..n as u32 {
            let reach = self.union_reachable_to(NodeId(t), k_prefix, mask);
            disconnected += reach.iter().filter(|&&r| !r).count();
        }
        disconnected
    }

    /// The set of physical edges used by any of the first `k_prefix`
    /// slices' trees toward any destination — the "spliced graph" of
    /// §4.2's union formulation, as an edge indicator.
    pub fn union_edges(&self, k_prefix: usize) -> Vec<bool> {
        assert!(k_prefix >= 1 && k_prefix <= self.k());
        let mut used = vec![false; self.failed.len()];
        for slice in 0..k_prefix {
            for e in self.fib.plane(slice).used_edges() {
                used[e.index()] = true;
            }
        }
        used
    }

    /// Number of *distinct* simple paths is exponential to enumerate; as a
    /// tractable diversity proxy, count the distinct (node, next-hop)
    /// pairs toward `dst` across the first `k_prefix` slices.
    pub fn diversity_toward(&self, dst: NodeId, k_prefix: usize) -> usize {
        let mask = EdgeMask::all_up(self.failed.len());
        self.successors_toward(dst, k_prefix, &mask)
            .iter()
            .map(|s| s.len())
            .sum()
    }
}

/// The [`RepairStats`] a masked full rebuild of one plane reports: every
/// column rewritten, nothing provably skippable, the frontier counted
/// once per plane (one global pass recomputes the whole plane, unlike the
/// delta engine's per-column frontiers), and every entry written.
fn masked_rebuild_stats(g: &Graph) -> RepairStats {
    let n = g.node_count();
    RepairStats {
        patched_columns: n,
        skipped_columns: 0,
        frontier_nodes: n,
        entries_written: n * n,
        entries_loaded: 0,
    }
}

/// A coalesced batch as the planes' delta repairs read it: the final mask
/// and the failed and restored links, which every plane shares, and the
/// scratch each plane's [`SpfDelta`] is assembled in — sized once per
/// batch, so no plane allocates.
struct BatchDelta<'a> {
    mask: &'a EdgeMask,
    failed: &'a [EdgeId],
    restored: &'a [EdgeId],
    raised: Vec<EdgeId>,
    lowered: Vec<EdgeId>,
}

impl<'a> BatchDelta<'a> {
    /// `mask` is the batch's final mask, `failed` lists the links the
    /// batch took down, `restored` those it brought back, and
    /// `reweighted` each slice's reweighted links.
    fn new(
        mask: &'a EdgeMask,
        failed: &'a [EdgeId],
        restored: &'a [EdgeId],
        reweighted: &[Vec<EdgeId>],
    ) -> BatchDelta<'a> {
        let most = reweighted.iter().map(Vec::len).max().unwrap_or(0);
        BatchDelta {
            mask,
            failed,
            restored,
            raised: Vec::with_capacity(most),
            lowered: Vec::with_capacity(restored.len() + most),
        }
    }

    /// The delta of one slice whose weights went from `base` to `fin`,
    /// differing only on `reweighted`: each reweight is a raise or a cut
    /// by its final value.
    fn plane<'s>(
        &'s mut self,
        base: &[f64],
        fin: &'s [f64],
        reweighted: &[EdgeId],
    ) -> SpfDelta<'s> {
        self.raised.clear();
        self.lowered.clear();
        self.lowered.extend_from_slice(self.restored);
        for &e in reweighted {
            let (old, new) = (base[e.index()], fin[e.index()]);
            if new > old {
                self.raised.push(e);
            } else if new < old && self.mask.is_up(e) && !self.restored.contains(&e) {
                // A restored link is in `lowered` already, and one that
                // ends the batch down improves nothing.
                self.lowered.push(e);
            }
        }
        SpfDelta {
            weights: fin,
            mask: self.mask,
            failed: self.failed,
            raised: &self.raised,
            lowered: &self.lowered,
        }
    }
}

/// Repair one plane against a coalesced batch: one delta repair of every
/// column the batch can have changed ([`PlaneMut::patch`]), observed as
/// one pass. Rebuild-only strategies get one masked rebuild at the
/// batch's final state instead, observed as the fill it is.
///
/// `dist` is the plane's distances, read and kept current by the delta
/// repair; it is there exactly when the strategy has delta repair.
#[allow(clippy::too_many_arguments)]
fn repair_plane_batched(
    g: &Graph,
    slice: usize,
    plane: &mut PlaneMut<'_>,
    dist: Option<&mut [f64]>,
    strategy: StrategyKind,
    seed: u64,
    delta: &SpfDelta<'_>,
    ws: &mut SpfWorkspace,
    telemetry: Option<&SpfTelemetry>,
) -> RepairStats {
    let Some(dist) = dist else {
        // One masked rebuild at the batch's final (weights, mask) — by
        // the determinism contract this equals folding the events.
        observed_fill(
            strategy,
            g,
            slice,
            seed,
            delta.weights,
            delta.mask,
            ws,
            plane,
            None,
            telemetry,
        );
        return masked_rebuild_stats(g);
    };
    observed_patch(telemetry, slice, || plane.patch(g, delta, dist, ws))
}

/// Run plane `slice`'s delta repair and, with `telemetry`, observe it
/// the way [`observed_fill`] observes a fill: one
/// `splice_spf_repair_seconds` and one `splice_spf_repair_frontier`
/// sample and one `repair/patch` flight event. Entries are bit-identical
/// either way.
fn observed_patch(
    telemetry: Option<&SpfTelemetry>,
    slice: usize,
    patch: impl FnOnce() -> RepairStats,
) -> RepairStats {
    let Some(tel) = telemetry else {
        return patch();
    };
    let t0 = Instant::now();
    let stats = patch();
    tel.spf_repair_seconds.record_duration(t0.elapsed());
    tel.spf_repair_frontier.record(stats.frontier_nodes as u64);
    if let Some(flight) = &tel.flight {
        flight.record(
            FlightEvent::new("repair", "patch")
                .field("slice", slice as u64)
                .field("frontier", stats.frontier_nodes as u64)
                .field("patched", stats.patched_columns as u64)
                .field("skipped", stats.skipped_columns as u64),
        );
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_graph::graph::from_edges;
    use splice_topology::abilene::abilene;

    fn diamond() -> Graph {
        from_edges(4, &[(0, 1, 1.0), (1, 3, 2.0), (0, 2, 2.0), (2, 3, 2.0)])
    }

    #[test]
    fn slice_zero_is_plain_shortest_paths() {
        let g = diamond();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 1);
        assert_eq!(sp.weights(0), g.base_weights());
        assert_eq!(
            sp.next_hop(0, NodeId(0), NodeId(3)).map(|(n, _)| n),
            Some(NodeId(1))
        );
    }

    #[test]
    fn k_grows_monotonically_in_reachability() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), 7);
        // Fail a couple of links; more slices can only help.
        let mask = EdgeMask::from_failed(g.edge_count(), &[EdgeId(0), EdgeId(5)]);
        let mut last = usize::MAX;
        for k in 1..=5 {
            let d = sp.disconnected_pairs(k, &mask);
            assert!(d <= last, "k={k}: {d} > {last}");
            last = d;
        }
    }

    #[test]
    fn prefix_slices_stable_under_larger_k() {
        // Slice i's weights must not depend on k (incremental methodology).
        let g = abilene().graph();
        let cfg3 = SplicingConfig::degree_based(3, 0.0, 3.0);
        let cfg5 = SplicingConfig::degree_based(5, 0.0, 3.0);
        let s3 = Splicing::build(&g, &cfg3, 42);
        let s5 = Splicing::build(&g, &cfg5, 42);
        for i in 0..3 {
            assert_eq!(s3.weights(i), s5.weights(i));
        }
    }

    #[test]
    fn no_failures_everyone_reaches() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(2, 0.0, 3.0), 3);
        let mask = EdgeMask::all_up(g.edge_count());
        assert_eq!(sp.disconnected_pairs(1, &mask), 0);
        assert_eq!(sp.disconnected_pairs(2, &mask), 0);
    }

    #[test]
    fn splicing_beats_single_slice_on_diamond() {
        let g = diamond();
        // Uniform strength 3 gives each perturbed slice a decent chance of
        // routing 0->3 via 2. Seed 0 did under rand 0.8's `StdRng` stream;
        // scanning forward pins the test to the property (the slices
        // diverge at node 0) instead of to one stream's draws.
        let cfg = SplicingConfig::uniform(4, 3.0);
        let sp = (0..200)
            .map(|seed| Splicing::build(&g, &cfg, seed))
            .find(|sp| {
                (1..4).any(|s| {
                    sp.next_hop(s, NodeId(0), NodeId(3)).map(|(n, _)| n) == Some(NodeId(2))
                })
            })
            .expect("no seed in 0..200 routes 0 -> 3 via 2 in a perturbed slice");
        // Fail edge 0 (0-1). Slice 0's next hop from 0 is gone.
        let mask = EdgeMask::from_failed(4, &[EdgeId(0)]);
        assert!(
            !sp.reachable_to(NodeId(3), 1, &mask)[0],
            "slice 0 alone routes 0 -> 3 over the failed edge"
        );
        assert!(
            sp.reachable_to(NodeId(3), 4, &mask)[0],
            "0 should reach 3 via the 0-2-3 segment in some slice"
        );
    }

    #[test]
    fn successors_respect_mask() {
        let g = diamond();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(1, 0.0, 3.0), 1);
        let up = EdgeMask::all_up(4);
        let succ = sp.successors_toward(NodeId(3), 1, &up);
        assert_eq!(succ[0], vec![NodeId(1)]);
        let down = EdgeMask::from_failed(4, &[EdgeId(0)]);
        let succ2 = sp.successors_toward(NodeId(3), 1, &down);
        assert!(succ2[0].is_empty(), "failed out-edge removes the successor");
    }

    #[test]
    fn union_edges_superset_of_slice0_tree() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 9);
        let u1: usize = sp.union_edges(1).iter().filter(|&&b| b).count();
        let u3: usize = sp.union_edges(3).iter().filter(|&&b| b).count();
        assert!(u3 >= u1);
        assert!(u3 <= g.edge_count());
    }

    #[test]
    fn diversity_grows_with_k() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), 5);
        let d1 = sp.diversity_toward(NodeId(0), 1);
        let d5 = sp.diversity_toward(NodeId(0), 5);
        assert!(d5 > d1, "expected diversity growth: {d1} -> {d5}");
        // With one slice every node has exactly one next hop (n-1 pairs).
        assert_eq!(d1, g.node_count() - 1);
    }

    #[test]
    fn union_reachability_is_superset_of_directed() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), 7);
        let mask = EdgeMask::from_failed(g.edge_count(), &[EdgeId(1), EdgeId(6), EdgeId(9)]);
        for t in g.nodes() {
            let directed = sp.reachable_to(t, 5, &mask);
            let union = sp.union_reachable_to(t, 5, &mask);
            for i in 0..g.node_count() {
                assert!(
                    !directed[i] || union[i],
                    "directed reaches {i} toward {t:?} but union does not"
                );
            }
        }
        assert!(sp.union_disconnected_pairs(5, &mask) <= sp.disconnected_pairs(5, &mask));
    }

    #[test]
    fn union_disconnection_monotone_in_k() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), 7);
        let mask = EdgeMask::from_failed(g.edge_count(), &[EdgeId(0), EdgeId(5)]);
        let mut last = usize::MAX;
        for k in 1..=5 {
            let d = sp.union_disconnected_pairs(k, &mask);
            assert!(d <= last);
            last = d;
        }
    }

    #[test]
    fn union_no_failures_fully_connected() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(2, 0.0, 3.0), 1);
        let mask = EdgeMask::all_up(g.edge_count());
        assert_eq!(sp.union_disconnected_pairs(1, &mask), 0);
    }

    #[test]
    fn seeds_change_slices() {
        let g = abilene().graph();
        let cfg = SplicingConfig::degree_based(2, 0.0, 3.0);
        let a = Splicing::build(&g, &cfg, 1);
        let b = Splicing::build(&g, &cfg, 2);
        assert_ne!(a.weights(1), b.weights(1));
    }

    #[test]
    fn prefix_is_a_zero_copy_view() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), 7);
        let view = sp.prefix(2);
        assert_eq!(view.k(), 2);
        // Same arena, not a deep clone.
        assert!(Arc::ptr_eq(view.arena(), sp.arena()));
        // Lookups agree with the parent deployment on the shared planes.
        for slice in 0..2 {
            for u in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(view.next_hop(slice, u, t), sp.next_hop(slice, u, t));
                }
            }
        }
        // View-level state accounting stays k-proportional.
        assert_eq!(view.state_bytes() * 5, sp.state_bytes() * 2);
    }

    #[test]
    fn arena_agrees_with_unfused_dijkstra() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 11);
        let mut installed = 0;
        for slice in 0..sp.k() {
            // The reference: standalone per-destination Dijkstras, no arena.
            let spts = splice_graph::dijkstra::all_destinations(&g, sp.weights(slice));
            for u in g.nodes() {
                for t in g.nodes() {
                    let parent = spts[t.index()].parent[u.index()];
                    assert_eq!(sp.next_hop(slice, u, t), parent);
                    installed += usize::from(parent.is_some());
                }
            }
        }
        assert_eq!(sp.total_state(), installed);
        // Two u16 words per entry.
        assert_eq!(
            sp.state_bytes(),
            sp.k() * 2 * g.node_count() * g.node_count() * 2
        );
        // The same weights handed in explicitly build the same arena.
        let explicit = (0..sp.k()).map(|i| sp.weights(i).to_vec()).collect();
        assert_eq!(
            Splicing::from_weight_vectors(&g, explicit).arena(),
            sp.arena()
        );
    }

    #[test]
    fn bad_weights_yield_typed_error() {
        use splice_graph::WeightError;
        let g = diamond();
        let err =
            Splicing::try_from_weight_vectors(&g, vec![vec![1.0, f64::NAN, 2.0, 2.0]]).unwrap_err();
        assert!(matches!(err, WeightError::BadWeight { .. }));
        // The panicking entry point surfaces the same message.
        let caught = std::panic::catch_unwind(|| {
            Splicing::from_weight_vectors(&g, vec![vec![1.0, -3.0, 2.0, 2.0]])
        });
        assert!(caught.is_err());
        // Good vectors still build.
        assert!(Splicing::try_from_weight_vectors(&g, vec![g.base_weights()]).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn zero_k_rejected() {
        let g = diamond();
        Splicing::build(&g, &SplicingConfig::degree_based(0, 0.0, 3.0), 1);
    }

    /// Arena entries are `u16`: a graph whose link ids reach the sentinel
    /// is refused when its arena is built, before any entry is written.
    #[test]
    #[should_panic(expected = "65535 links exceed the arena's limit")]
    fn a_build_over_65535_links_is_rejected() {
        let g = from_edges(2, &vec![(0, 1, 1.0); 65_535]);
        Splicing::build(&g, &SplicingConfig::degree_based(1, 0.0, 3.0), 1);
    }

    /// Every (slice, router, dst) next hop of `sp` equals a from-scratch
    /// masked Dijkstra on `sp`'s own weight vectors — the repair ≡ rebuild
    /// oracle.
    fn assert_matches_masked_rebuild(g: &Graph, sp: &Splicing, mask: &EdgeMask) {
        with_spf_workspace(|ws| {
            for slice in 0..sp.k() {
                for t in g.nodes() {
                    ws.run(g, t, sp.weights(slice), Some(mask));
                    for u in g.nodes() {
                        assert_eq!(
                            sp.next_hop(slice, u, t),
                            ws.parents()[u.index()],
                            "slice {slice} {u:?}->{t:?}"
                        );
                    }
                }
            }
        });
    }

    /// The engine without telemetry or a spare arena, stats included.
    fn repair_with_stats(
        sp: &Splicing,
        g: &Graph,
        events: &[RepairEvent],
    ) -> (Splicing, RepairStats) {
        sp.try_repair_batch_recycling(g, events, None, None)
            .expect("valid batch")
    }

    #[test]
    fn repair_link_failure_matches_rebuild() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 11);
        let (repaired, stats) = repair_with_stats(&sp, &g, &[RepairEvent::LinkFailure(EdgeId(0))]);
        assert!(stats.patched_columns > 0, "failure must touch some columns");
        assert_eq!(repaired.failed_mask().failed_count(), 1);
        assert!(repaired.failed_mask().is_failed(EdgeId(0)));
        assert_matches_masked_rebuild(&g, &repaired, repaired.failed_mask());
        // The original deployment is untouched.
        assert_eq!(sp.failed_mask().failed_count(), 0);
        assert_matches_masked_rebuild(&g, &sp, &EdgeMask::all_up(g.edge_count()));
    }

    #[test]
    fn repair_events_stack_and_match_batch_failure() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 7);
        let stacked = sp
            .repair(&g, &RepairEvent::LinkFailure(EdgeId(0)))
            .repair(&g, &RepairEvent::LinkFailure(EdgeId(5)));
        let batch = sp.repair(&g, &RepairEvent::LinkSetFailure(vec![EdgeId(0), EdgeId(5)]));
        assert_eq!(stacked.failed_mask().failed_count(), 2);
        assert_eq!(
            stacked.failed_mask().failed_edges().collect::<Vec<_>>(),
            batch.failed_mask().failed_edges().collect::<Vec<_>>()
        );
        assert_matches_masked_rebuild(&g, &stacked, stacked.failed_mask());
        assert_matches_masked_rebuild(&g, &batch, batch.failed_mask());
        // Re-failing an already-failed link is the identity.
        let (again, stats) =
            repair_with_stats(&stacked, &g, &[RepairEvent::LinkFailure(EdgeId(5))]);
        assert_eq!(stats, RepairStats::default());
        assert_eq!(again.failed_mask().failed_count(), 2);
    }

    #[test]
    fn repair_node_failure_fails_all_incident_links() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(2, 0.0, 3.0), 3);
        let victim = NodeId(4);
        let repaired = sp.repair(&g, &RepairEvent::NodeFailure(victim));
        assert_eq!(
            repaired.failed_mask().failed_count(),
            g.neighbors(victim).len()
        );
        for &(_, e) in g.neighbors(victim) {
            assert!(repaired.failed_mask().is_failed(e));
        }
        assert_matches_masked_rebuild(&g, &repaired, repaired.failed_mask());
    }

    #[test]
    fn repair_reweight_matches_rebuild_and_leaves_other_slices() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 5);
        let edge = EdgeId(2);
        let new_weight = sp.weights(1)[edge.index()] * 10.0;
        let repaired = sp.repair(
            &g,
            &RepairEvent::SliceReweight {
                slice: 1,
                edge,
                new_weight,
            },
        );
        assert_eq!(repaired.weights(1)[edge.index()], new_weight);
        assert_eq!(repaired.weights(0), sp.weights(0));
        assert_eq!(repaired.weights(2), sp.weights(2));
        assert_matches_masked_rebuild(&g, &repaired, &EdgeMask::all_up(g.edge_count()));
        // And the decrease direction.
        let cheaper = repaired.repair(
            &g,
            &RepairEvent::SliceReweight {
                slice: 1,
                edge,
                new_weight: new_weight / 50.0,
            },
        );
        assert_matches_masked_rebuild(&g, &cheaper, &EdgeMask::all_up(g.edge_count()));
    }

    #[test]
    fn repair_rejects_bad_reweight() {
        let g = diamond();
        let sp = Splicing::build(&g, &SplicingConfig::uniform(2, 1.0), 1);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = sp
                .try_repair_batch_recycling(
                    &g,
                    &[RepairEvent::SliceReweight {
                        slice: 1,
                        edge: EdgeId(0),
                        new_weight: bad,
                    }],
                    None,
                    None,
                )
                .unwrap_err();
            assert!(matches!(err, WeightError::BadWeight { .. }), "{bad}");
        }
        let caught = std::panic::catch_unwind(|| {
            sp.repair(
                &g,
                &RepairEvent::SliceReweight {
                    slice: 0,
                    edge: EdgeId(0),
                    new_weight: 0.0,
                },
            )
        });
        assert!(caught.is_err());
    }

    #[test]
    fn repair_records_trigger_and_planes_in_flight_order() {
        use splice_routing::spf::{FlightRecorder, Registry};

        let g = diamond();
        let sp = Splicing::build(&g, &SplicingConfig::uniform(2, 1.0), 1);
        let rec = FlightRecorder::new(32);
        let tel = SpfTelemetry::register(&Registry::new()).with_flight(rec.clone());
        let (repaired, _) = sp
            .try_repair_batch_recycling(
                &g,
                &[RepairEvent::LinkFailure(EdgeId(0))],
                Some(&tel),
                None,
            )
            .unwrap();
        let rebuilt = sp.repair(&g, &RepairEvent::LinkFailure(EdgeId(0)));
        for slice in 0..repaired.k() {
            assert_eq!(repaired.arena().plane(slice), rebuilt.arena().plane(slice));
        }
        let events = rec.snapshot();
        assert_eq!(events[0].event.kind, "repair_event");
        assert_eq!(events[0].event.name, "batch");
        assert_eq!(events[0].event.fields[0], ("events", 1));
        assert_eq!(events[0].event.fields[1], ("links", 1));
        // One per-plane repair event per slice follows the trigger.
        let planes = events
            .iter()
            .filter(|e| e.event.kind == "repair" && e.event.name == "patch")
            .count();
        assert_eq!(planes, 2);
    }

    #[test]
    fn kind_labels_name_every_event_class() {
        assert_eq!(
            RepairEvent::LinkFailure(EdgeId(0)).kind_label(),
            "link_failure"
        );
        assert_eq!(
            RepairEvent::LinkSetFailure(vec![EdgeId(0)]).kind_label(),
            "link_set_failure"
        );
        assert_eq!(
            RepairEvent::NodeFailure(NodeId(0)).kind_label(),
            "node_failure"
        );
        assert_eq!(
            RepairEvent::LinkRestore(EdgeId(0)).kind_label(),
            "link_restore"
        );
        assert_eq!(
            RepairEvent::SliceReweight {
                slice: 0,
                edge: EdgeId(0),
                new_weight: 1.0
            }
            .kind_label(),
            "slice_reweight"
        );
    }

    #[test]
    fn repair_link_restore_shrinks_the_mask_and_matches_rebuild() {
        use splice_routing::spf::{FlightRecorder, Registry};

        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 11);
        let down = sp.repair(&g, &RepairEvent::LinkSetFailure(vec![EdgeId(0), EdgeId(5)]));
        let rec = FlightRecorder::new(32);
        let tel = SpfTelemetry::register(&Registry::new()).with_flight(rec.clone());
        let (up, stats) = down
            .try_repair_batch_recycling(
                &g,
                &[RepairEvent::LinkRestore(EdgeId(0))],
                Some(&tel),
                None,
            )
            .unwrap();
        assert!(stats.patched_columns > 0, "the link carried routes");
        let failed: Vec<EdgeId> = up.failed_mask().failed_edges().collect();
        assert_eq!(failed, [EdgeId(5)]);
        assert_matches_masked_rebuild(&g, &up, up.failed_mask());
        let passes = rec
            .snapshot()
            .iter()
            .filter(|e| e.event.kind == "repair" && e.event.name == "patch")
            .count();
        assert_eq!(passes, 3, "one delta repair per plane, nothing else");
        assert_eq!(tel.spf_repair_seconds.count(), 3);
        // Restoring the last link lands back on the fresh build's bytes;
        // restoring it again is free.
        let clean = up.repair(&g, &RepairEvent::LinkRestore(EdgeId(5)));
        assert_eq!(clean.arena(), sp.arena());
        assert_eq!(clean.failed_mask().failed_count(), 0);
        let (again, stats) = repair_with_stats(&clean, &g, &[RepairEvent::LinkRestore(EdgeId(5))]);
        assert_eq!(stats, RepairStats::default());
        assert!(Arc::ptr_eq(again.arena(), clean.arena()));
    }

    #[test]
    fn fail_restore_pairs_cancel_before_any_spf_runs() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(2, 0.0, 3.0), 3);
        let (same, stats) = repair_with_stats(
            &sp,
            &g,
            &[
                RepairEvent::LinkFailure(EdgeId(3)),
                RepairEvent::NodeFailure(NodeId(4)),
                RepairEvent::LinkRestore(EdgeId(3)),
            ],
        );
        // Only the node's links survive coalescing (edge 3 is not one).
        assert!(g.neighbors(NodeId(4)).iter().all(|&(_, e)| e != EdgeId(3)));
        assert_eq!(
            same.failed_mask().failed_count(),
            g.neighbors(NodeId(4)).len()
        );
        assert_same_deployment(
            &g,
            &same,
            &sp.repair(&g, &RepairEvent::NodeFailure(NodeId(4))),
        );
        assert!(stats.patched_columns > 0);
        // A batch that is nothing but a cancelled pair shares the arena.
        let (noop, stats) = repair_with_stats(
            &sp,
            &g,
            &[
                RepairEvent::LinkFailure(EdgeId(3)),
                RepairEvent::LinkRestore(EdgeId(3)),
            ],
        );
        assert_eq!(stats, RepairStats::default());
        assert!(Arc::ptr_eq(noop.arena(), sp.arena()));
    }

    #[test]
    fn repair_works_on_prefix_views() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(5, 0.0, 3.0), 9);
        let repaired = sp
            .prefix(2)
            .repair(&g, &RepairEvent::LinkFailure(EdgeId(3)));
        assert_eq!(repaired.k(), 2);
        assert_matches_masked_rebuild(&g, &repaired, repaired.failed_mask());
    }

    #[test]
    fn one_event_repair_on_a_prefix_view_equals_masked_rebuild_for_every_strategy() {
        // The batch engine's `planes_mut` over a 2-plane arena filled
        // from a 5-plane one is the only repair path a prefix view has.
        let g = abilene().graph();
        for kind in StrategyKind::ALL {
            let cfg = SplicingConfig::degree_based(5, 0.0, 3.0).with_strategy(kind);
            let sp = Splicing::build(&g, &cfg, 9);
            assert_eq!(sp.arena().k(), 5);
            let repaired = sp
                .prefix(2)
                .repair(&g, &RepairEvent::LinkFailure(EdgeId(3)));
            assert_eq!((repaired.k(), repaired.arena().k()), (2, 2), "{kind:?}");
            let mut rebuilt = SpliceFib::empty(2, g.node_count());
            with_spf_workspace(|ws| {
                for slice in 0..2 {
                    kind.fill_slice(
                        &g,
                        slice,
                        sp.build_seed(),
                        sp.weights(slice),
                        repaired.failed_mask(),
                        ws,
                        &mut rebuilt,
                        None,
                    );
                }
            });
            assert_eq!(**repaired.arena(), rebuilt, "{kind:?}");
        }
    }

    #[test]
    fn noop_repair_shares_the_arena_without_spf_work() {
        use splice_routing::spf::{Registry, SpfTelemetry};

        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 7);
        let failed = sp.repair(&g, &RepairEvent::LinkFailure(EdgeId(4)));
        let tel = SpfTelemetry::register(&Registry::new());
        let (again, stats) = failed
            .try_repair_batch_recycling(
                &g,
                &[RepairEvent::LinkFailure(EdgeId(4))],
                Some(&tel),
                None,
            )
            .unwrap();
        // Re-failing a failed link is free: no arena copy, no SPF work.
        assert_eq!(stats, RepairStats::default());
        assert!(Arc::ptr_eq(again.arena(), failed.arena()));
        assert_eq!(tel.spf_repair_seconds.count(), 0);
        assert_eq!(tel.spf_seconds.count(), 0);
    }

    /// A `k`-plane arena for `g` whose every entry is a splitmix-drawn
    /// (node, edge) pair of `g` — what a recycled spare may hold.
    fn junk_arena(g: &Graph, k: usize, seed: u64) -> SpliceFib {
        let (n, m) = (g.node_count() as u64, g.edge_count() as u64);
        let mut fib = SpliceFib::empty(k, g.node_count());
        let mut state = seed;
        for slice in 0..k {
            for u in g.nodes() {
                for t in g.nodes() {
                    state = crate::hash::splitmix64(state);
                    let entry = (NodeId((state % n) as u32), EdgeId((state % m) as u32));
                    fib.set(slice, u, t, Some(entry));
                }
            }
        }
        fib
    }

    #[test]
    fn a_spare_full_of_junk_changes_nothing() {
        // A failure dirties every plane, a reweight one, and a cancelled
        // fail/restore pair none: whether a plane is copied, rebuilt or
        // left alone, nothing the spare held may survive into the result.
        let g = abilene().graph();
        let e = EdgeId(3);
        for kind in StrategyKind::ALL {
            let cfg = SplicingConfig::degree_based(3, 0.0, 3.0).with_strategy(kind);
            let sp = Splicing::build(&g, &cfg, 5);
            let batches = [
                vec![RepairEvent::LinkFailure(e)],
                vec![RepairEvent::SliceReweight {
                    slice: 1,
                    edge: e,
                    new_weight: sp.weights(1)[e.index()] * 4.0,
                }],
                vec![RepairEvent::LinkFailure(e), RepairEvent::LinkRestore(e)],
            ];
            for batch in &batches {
                let spare = junk_arena(&g, 3, 7);
                let (recycled, _) = sp
                    .try_repair_batch_recycling(&g, batch, None, Some(spare))
                    .expect("valid batch");
                let (fresh, _) = repair_with_stats(&sp, &g, batch);
                assert!(
                    recycled.arena().slabs() == fresh.arena().slabs(),
                    "{kind:?} {batch:?}"
                );
            }
        }
    }

    /// Assert two deployments are bit-identical: same mask, same weight
    /// bits, same arena bytes on every plane.
    fn assert_same_deployment(g: &Graph, a: &Splicing, b: &Splicing) {
        assert_eq!(a.k(), b.k());
        assert_eq!(
            a.failed_mask().failed_edges().collect::<Vec<_>>(),
            b.failed_mask().failed_edges().collect::<Vec<_>>()
        );
        for slice in 0..a.k() {
            let (wa, wb) = (a.weights(slice), b.weights(slice));
            assert_eq!(wa.len(), wb.len());
            for (x, y) in wa.iter().zip(wb) {
                assert_eq!(x.to_bits(), y.to_bits(), "slice {slice} weight bits");
            }
            for u in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(
                        a.next_hop(slice, u, t),
                        b.next_hop(slice, u, t),
                        "slice {slice} {u:?}->{t:?}"
                    );
                }
            }
        }
    }

    fn mixed_batch(sp: &Splicing) -> Vec<RepairEvent> {
        vec![
            RepairEvent::LinkFailure(EdgeId(0)),
            RepairEvent::SliceReweight {
                slice: 1,
                edge: EdgeId(2),
                new_weight: sp.weights(1)[2] * 4.0,
            },
            RepairEvent::LinkSetFailure(vec![EdgeId(5), EdgeId(0)]),
            RepairEvent::NodeFailure(NodeId(3)),
            // Reweight the same (slice, edge) twice: only the final
            // value may matter.
            RepairEvent::SliceReweight {
                slice: 1,
                edge: EdgeId(2),
                new_weight: sp.weights(1)[2] * 0.5,
            },
            RepairEvent::SliceReweight {
                slice: 2,
                edge: EdgeId(7),
                new_weight: sp.weights(2)[7] * 2.5,
            },
            RepairEvent::LinkFailure(EdgeId(5)),
        ]
    }

    #[test]
    fn repair_batch_matches_sequential_fold() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(3, 0.0, 3.0), 11);
        let events = mixed_batch(&sp);
        let folded = events.iter().fold(sp.clone(), |acc, ev| acc.repair(&g, ev));
        let (batched, stats) = repair_with_stats(&sp, &g, &events);
        assert!(stats.patched_columns > 0);
        assert_same_deployment(&g, &batched, &folded);
        assert_matches_masked_rebuild(&g, &batched, batched.failed_mask());
        // And batches stack like single events do.
        let more = batched.repair_batch(&g, &[RepairEvent::LinkFailure(EdgeId(9))]);
        assert_same_deployment(
            &g,
            &more,
            &folded.repair(&g, &RepairEvent::LinkFailure(EdgeId(9))),
        );
    }

    #[test]
    fn repair_batch_on_many_slices_matches_rebuild() {
        // k = 8 dirty planes repaired one after another in one warm
        // workspace; the oracle is a from-scratch masked rebuild per plane.
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(8, 0.0, 3.0), 13);
        let events = vec![
            RepairEvent::LinkFailure(EdgeId(1)),
            RepairEvent::SliceReweight {
                slice: 6,
                edge: EdgeId(3),
                new_weight: sp.weights(6)[3] * 3.0,
            },
            RepairEvent::LinkFailure(EdgeId(8)),
        ];
        let batched = sp.repair_batch(&g, &events);
        assert_eq!(batched.failed_mask().failed_count(), 2);
        assert_matches_masked_rebuild(&g, &batched, batched.failed_mask());
    }

    #[test]
    fn empty_and_absorbed_batches_share_state() {
        let g = abilene().graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(2, 0.0, 3.0), 3);
        let (same, stats) = repair_with_stats(&sp, &g, &[]);
        assert_eq!(stats, RepairStats::default());
        assert!(Arc::ptr_eq(same.arena(), sp.arena()));
        // A batch fully absorbed by the current mask is also free.
        let failed = sp.repair(&g, &RepairEvent::LinkFailure(EdgeId(2)));
        let (again, stats) = repair_with_stats(
            &failed,
            &g,
            &[
                RepairEvent::LinkFailure(EdgeId(2)),
                RepairEvent::LinkSetFailure(vec![EdgeId(2)]),
            ],
        );
        assert_eq!(stats, RepairStats::default());
        assert!(Arc::ptr_eq(again.arena(), failed.arena()));
    }

    #[test]
    fn repair_batch_rejects_bad_reweight_atomically() {
        let g = diamond();
        let sp = Splicing::build(&g, &SplicingConfig::uniform(2, 1.0), 1);
        let err = sp
            .try_repair_batch_recycling(
                &g,
                &[
                    RepairEvent::LinkFailure(EdgeId(0)),
                    RepairEvent::SliceReweight {
                        slice: 1,
                        edge: EdgeId(1),
                        new_weight: f64::NAN,
                    },
                ],
                None,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, WeightError::BadWeight { .. }));
        // Atomic: the valid failure earlier in the batch was not applied.
        assert_eq!(sp.failed_mask().failed_count(), 0);
    }

    #[test]
    fn repair_batch_matches_fold_and_the_fan_out_it_replaced() {
        let g = &abilene().graph();
        for strategy in StrategyKind::ALL {
            for k in [3, 8] {
                let config = SplicingConfig::degree_based(k, 0.0, 3.0).with_strategy(strategy);
                let start =
                    Splicing::build(g, &config, 17).repair(g, &RepairEvent::LinkFailure(EdgeId(9)));
                let mut events = mixed_batch(&start);
                events.push(RepairEvent::LinkRestore(EdgeId(9)));
                let folded = events
                    .iter()
                    .fold(start.clone(), |acc, ev| acc.repair(g, ev));
                let (batched, stats) = repair_with_stats(&start, g, &events);
                assert_same_deployment(g, &batched, &folded);
                // The engine repairs every plane on the calling thread, one
                // warm workspace for all k. The fan-out it replaced — two
                // workers, a cold workspace each, planes dealt round-robin
                // through the same per-plane repair — must land on the same
                // bytes having done the same work.
                let (before, after) = (start.failed_mask(), batched.failed_mask());
                let newly: Vec<EdgeId> =
                    after.failed_edges().filter(|&e| before.is_up(e)).collect();
                let restored: Vec<EdgeId> =
                    before.failed_edges().filter(|&e| after.is_up(e)).collect();
                assert_eq!(restored, [EdgeId(9)]);
                let reweighted: Vec<Vec<EdgeId>> = (0..k)
                    .map(|s| {
                        g.edge_ids()
                            .filter(|e| {
                                start.weights(s)[e.index()] != batched.weights(s)[e.index()]
                            })
                            .collect()
                    })
                    .collect();
                let reweighted = &reweighted;
                let (newly, restored) = (&newly, &restored);
                let mut fanned = start.arena().clone_prefix(k);
                let mut jobs = [Vec::new(), Vec::new()];
                for (slice, plane) in fanned.planes_mut().into_iter().enumerate() {
                    jobs[slice % 2].push((slice, plane));
                }
                let fanned_stats = std::thread::scope(|scope| {
                    let workers: Vec<_> = jobs
                        .into_iter()
                        .map(|job| {
                            scope.spawn(|| {
                                let mut ws = SpfWorkspace::new();
                                let mut dist = start.distances().map(|d| d.clone_prefix(k));
                                let mut delta = BatchDelta::new(after, newly, restored, reweighted);
                                let mut local = RepairStats::default();
                                for (slice, mut plane) in job {
                                    local.absorb(repair_plane_batched(
                                        g,
                                        slice,
                                        &mut plane,
                                        dist.as_mut().map(|d| d.plane_mut(slice)),
                                        strategy,
                                        start.build_seed(),
                                        &delta.plane(
                                            start.weights(slice),
                                            batched.weights(slice),
                                            &reweighted[slice],
                                        ),
                                        &mut ws,
                                        None,
                                    ));
                                }
                                local
                            })
                        })
                        .collect();
                    workers
                        .into_iter()
                        .fold(RepairStats::default(), |mut all, w| {
                            all.absorb(w.join().expect("reference worker"));
                            all
                        })
                });
                assert!(
                    batched.arena().slabs() == fanned.slabs(),
                    "{strategy:?} k={k}"
                );
                assert_eq!(stats, fanned_stats, "{strategy:?} k={k}");
            }
        }
    }
}
