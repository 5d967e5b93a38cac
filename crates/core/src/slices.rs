//! Slice construction: k routing instances over one topology (§3.1).
//!
//! A slice is one converged routing instance — a perturbed weight
//! vector and the forwarding plane it induces. A [`Splicing`] is the set
//! of `k` slices a deployment runs. By convention (matching the paper's
//! "k = 1 (normal)" baseline) slice 0 uses the *unperturbed* base weights,
//! so a single-slice splicing is exactly ordinary shortest-path routing;
//! slices 1..k are independently perturbed.

use crate::perturb::{DegreeBased, Perturbation, TheoremA1, Uniform};
use crate::strategy::{with_spf_workspace, SliceStrategy, StrategyKind};
use rand::rngs::StdRng;
use splice_graph::dijkstra::{validate_weights, SpfWorkspace, WeightError};
use splice_graph::traversal::reverse_reachable;
use splice_graph::{EdgeId, EdgeMask, Graph, NodeId};
use splice_routing::arena::{PlaneMut, RepairStats, SpliceFib};
use splice_routing::spf::{
    spf_repair_plane_failures, spf_repair_plane_restores, spf_repair_plane_reweight, FlightEvent,
    SpfTelemetry,
};
use std::sync::Arc;

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

/// Which perturbation strategy a config uses (a closed enum so configs
/// stay `Clone + Send + Sync` and trivially serializable in results).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PerturbationKind {
    /// Constant `Weight` for all links.
    Uniform(Uniform),
    /// The paper's degree-based `Weight(a, b)`.
    DegreeBased(DegreeBased),
    /// Theorem A.1's full-range redraw.
    TheoremA1(TheoremA1),
}

impl Perturbation for PerturbationKind {
    fn perturb(&self, g: &Graph, rng: &mut StdRng) -> Vec<f64> {
        match self {
            PerturbationKind::Uniform(p) => p.perturb(g, rng),
            PerturbationKind::DegreeBased(p) => p.perturb(g, rng),
            PerturbationKind::TheoremA1(p) => p.perturb(g, rng),
        }
    }

    fn label(&self) -> String {
        match self {
            PerturbationKind::Uniform(p) => p.label(),
            PerturbationKind::DegreeBased(p) => p.label(),
            PerturbationKind::TheoremA1(p) => p.label(),
        }
    }
}

/// Configuration for building a [`Splicing`].
#[derive(Clone, Debug, PartialEq)]
pub struct SplicingConfig {
    /// Number of slices `k ≥ 1`.
    pub k: usize,
    /// Perturbation applied to slices 1..k (slice 0 stays base when
    /// `include_base_slice`). Only the perturbed-SPF strategy reads it.
    pub perturbation: PerturbationKind,
    /// Keep slice 0 unperturbed (the paper's baseline convention;
    /// perturbed-SPF only — tree strategies own every slice).
    pub include_base_slice: bool,
    /// How each slice's forwarding columns are constructed.
    pub strategy: StrategyKind,
}

impl SplicingConfig {
    /// The paper's headline configuration: degree-based `Weight(a, b)`.
    pub fn degree_based(k: usize, a: f64, b: f64) -> Self {
        SplicingConfig {
            k,
            perturbation: PerturbationKind::DegreeBased(DegreeBased::new(a, b)),
            include_base_slice: true,
            strategy: StrategyKind::PerturbedSpf,
        }
    }

    /// Uniform perturbation with the given strength.
    pub fn uniform(k: usize, strength: f64) -> Self {
        SplicingConfig {
            k,
            perturbation: PerturbationKind::Uniform(Uniform::new(strength)),
            include_base_slice: true,
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
/// The arena and the weight vectors are shared behind `Arc`s, so cloning
/// a `Splicing` — and, crucially, taking a [`Splicing::prefix`] view — is
/// O(1) and copies no forwarding state.
#[derive(Clone, Debug)]
pub struct Splicing {
    /// Slices visible through this handle (≤ planes built in `fib`).
    k: usize,
    /// Per-slice weight vectors for every *built* plane (shared).
    weights: Arc<[Vec<f64>]>,
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
}

impl Splicing {
    /// Assemble a deployment from explicit state: per-slice weight
    /// vectors, a pre-populated arena, and the failure mask that arena
    /// is meant to reflect.
    ///
    /// [`Splicing::build`] and [`Splicing::repair`] keep these three
    /// consistent by construction; here that is the caller's job.
    /// Alternative constructions that fill the planes themselves end
    /// here ([`crate::coverage::build_coverage_aware`]), and
    /// `splice-testkit` uses it to break the consistency on purpose —
    /// injecting corrupted forwarding state (e.g. a slice whose columns
    /// skipped a repair) to prove its oracles catch it. The result
    /// carries SPF-shaped state: repairs use the perturbed-SPF delta
    /// engine.
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
            weights: weights.into(),
            fib: Arc::new(fib),
            failed: Arc::new(failed),
            strategy: StrategyKind::PerturbedSpf,
            seed: 0,
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
    /// weight vector (see [`Splicing::try_build`] for the typed error).
    pub fn build(g: &Graph, cfg: &SplicingConfig, seed: u64) -> Splicing {
        Splicing::build_with_telemetry(g, cfg, seed, None)
    }

    /// [`Splicing::build`], returning a typed [`WeightError`] instead of
    /// panicking when a perturbation yields NaN/non-positive weights.
    pub fn try_build(g: &Graph, cfg: &SplicingConfig, seed: u64) -> Result<Splicing, WeightError> {
        Splicing::try_build_with_telemetry(g, cfg, seed, None)
    }

    /// [`Splicing::build`] with optional per-slice SPF timing and arena
    /// state-size accounting.
    ///
    /// Telemetry is observation only: the perturbation RNG streams are
    /// untouched, so the resulting slices are bit-identical to an
    /// untimed build with the same seed.
    pub fn build_with_telemetry(
        g: &Graph,
        cfg: &SplicingConfig,
        seed: u64,
        telemetry: Option<&SpfTelemetry>,
    ) -> Splicing {
        match Splicing::try_build_with_telemetry(g, cfg, seed, telemetry) {
            Ok(sp) => sp,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Splicing::build_with_telemetry`] with weight validation surfaced
    /// as a typed error. Each slice is produced by the configured
    /// [`crate::strategy::SliceStrategy`]; for the default perturbed-SPF
    /// strategy all k·n destination-rooted Dijkstras share one workspace
    /// and emit directly into the arena, exactly as before the strategy
    /// extraction.
    ///
    /// # Panics
    /// Panics if `cfg.k == 0` (a structural misuse, unlike bad weights
    /// which can arise from data).
    pub fn try_build_with_telemetry(
        g: &Graph,
        cfg: &SplicingConfig,
        seed: u64,
        telemetry: Option<&SpfTelemetry>,
    ) -> Result<Splicing, WeightError> {
        assert!(cfg.k >= 1, "need at least one slice");
        let strategy = cfg.strategy.instance();
        let mut fib = SpliceFib::empty(cfg.k, g.node_count());
        let mut weights = Vec::with_capacity(cfg.k);
        let all_up = EdgeMask::all_up(g.edge_count());
        with_spf_workspace(|ws| -> Result<(), WeightError> {
            for id in 0..cfg.k {
                let w = strategy.slice_weights(g, cfg, id, seed);
                validate_weights(g, &w)?;
                strategy.fill_slice(g, id, seed, &w, &all_up, ws, &mut fib, telemetry);
                weights.push(w);
            }
            Ok(())
        })?;
        if let Some(tel) = telemetry {
            tel.arena_bytes.record(fib.state_bytes() as u64);
        }
        Ok(Splicing {
            k: cfg.k,
            weights: weights.into(),
            fib: Arc::new(fib),
            failed: Arc::new(all_up),
            strategy: cfg.strategy,
            seed,
        })
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
        assert!(!weight_vectors.is_empty(), "need at least one slice");
        let mut fib = SpliceFib::empty(weight_vectors.len(), g.node_count());
        with_spf_workspace(|ws| -> Result<(), WeightError> {
            for (id, weights) in weight_vectors.iter().enumerate() {
                assert_eq!(weights.len(), g.edge_count(), "slice {id} weight length");
                validate_weights(g, weights)?;
                splice_routing::spf::spf_fill_arena(g, weights, &mut fib, id, ws, None);
            }
            Ok(())
        })?;
        Ok(Splicing {
            k: weight_vectors.len(),
            weights: weight_vectors.into(),
            fib: Arc::new(fib),
            failed: Arc::new(EdgeMask::all_up(g.edge_count())),
            strategy: StrategyKind::PerturbedSpf,
            seed: 0,
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
    /// Monte-Carlo experiments cost two `Arc` clones, not a deep copy.
    pub fn prefix(&self, k: usize) -> Splicing {
        assert!(k >= 1 && k <= self.k());
        Splicing {
            k,
            weights: Arc::clone(&self.weights),
            fib: Arc::clone(&self.fib),
            failed: Arc::clone(&self.failed),
            strategy: self.strategy,
            seed: self.seed,
        }
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
    /// one's arena (two `memcpy`s, no shortest-path work) and rewrites
    /// only the destination columns the batch can have touched; every
    /// other column is carried over byte-identical. The batch is first
    /// coalesced: failures and restores are folded, in order, into one
    /// net mask change (a fail/restore pair on one link cancels before
    /// any SPF runs) and reweights dedup per `(slice, edge)`. Each dirty
    /// slice then gets, in this order, one short reweight chain under the
    /// pre-batch mask, one failure pass for all newly failed links, and
    /// one restore pass for all restored links under the final mask (or,
    /// for strategies without delta repair, one masked rebuild at the
    /// final state), with the disjoint slice planes repaired on parallel
    /// workers. Also returned: what the repair did — columns patched vs
    /// proven untouched and the total re-relaxed frontier, folded across
    /// slices and workers.
    ///
    /// The result is bit-identical to building from scratch on the
    /// post-batch topology, and therefore to absorbing the events one
    /// batch of one at a time (property-tested across every strategy):
    /// every pass leaves a plane equal to a masked rebuild at its current
    /// (weights, mask), and the deterministic tie-break makes parents a
    /// pure function of exact distances, so any event order that ends at
    /// the same final (weights, mask) ends at the same bytes. Batches
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
    /// plane. Every repair starts by cloning the current arena
    /// (`clone_prefix`), a `k·n²` allocation per batch. A daemon
    /// that owns its deployment can instead hand back a *retired* arena
    /// (a superseded snapshot no reader holds anymore): when its shape
    /// matches it is overwritten in place ([`SpliceFib::copy_from`]) and
    /// no allocation happens. A mismatched or absent spare falls back to
    /// the clone — the result is bit-identical either way. A no-op batch
    /// returns the spare unused (dropped), since the result shares this
    /// deployment's arena.
    pub fn try_repair_batch_recycling(
        &self,
        g: &Graph,
        events: &[RepairEvent],
        telemetry: Option<&SpfTelemetry>,
        recycle: Option<SpliceFib>,
    ) -> Result<(Splicing, RepairStats), WeightError> {
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
        let mut final_weights: Option<Vec<Vec<f64>>> = None;
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
                    w[*slice][edge.index()] = *new_weight;
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
            // Nothing survived coalescing: share everything (a clone is
            // three `Arc` bumps).
            return Ok((self.clone(), RepairStats::default()));
        }

        // The failure pass runs before the restore pass, under the
        // pre-batch mask plus the new failures.
        let with_failures = (!restored.is_empty()).then(|| {
            let mut m = mask.clone();
            restored.iter().for_each(|e| m.fail(*e));
            m
        });
        let delta = MaskDelta {
            before: &self.failed,
            with_failures: with_failures.as_ref().unwrap_or(&mask),
            after: &mask,
            newly_failed: &newly,
            restored: &restored,
        };

        // A slice is dirty when the batch changed the topology (every
        // plane shares the mask) or it was reweighted. Clean planes ride
        // along untouched from the prefix copy.
        let dirty: Vec<usize> = (0..self.k)
            .filter(|&s| mask_changed || !reweighted[s].is_empty())
            .collect();
        let strategy = self.strategy.instance();
        let seed = self.seed;
        let base_weights: &[Vec<f64>] = &self.weights;
        let finals = final_weights.as_ref();
        let mut fib = match recycle {
            Some(mut spare) if spare.k() == self.k && spare.n() == self.fib.n() => {
                spare.copy_from(&self.fib);
                spare
            }
            _ => self.fib.clone_prefix(self.k),
        };
        let mut stats = RepairStats::default();
        {
            // Per-slice planes are disjoint arena views, so workers can
            // patch their columns concurrently and the "merge" is just
            // handing the borrows back — no copying, no reconciliation.
            let mut planes: Vec<Option<PlaneMut<'_>>> =
                fib.planes_mut().into_iter().map(Some).collect();
            // Decided from the strategy first: asking for the core count
            // reads cgroup files, which alone outweighs a forest plane.
            let threads = if strategy.repair_fans_out() {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(dirty.len())
            } else {
                1
            };
            if threads <= 1 {
                with_spf_workspace(|ws| {
                    for &slice in &dirty {
                        let plane = planes[slice].as_mut().expect("each plane taken once");
                        stats.absorb(repair_plane_batched(
                            g,
                            slice,
                            plane,
                            strategy,
                            seed,
                            &base_weights[slice],
                            finals.map_or(&base_weights[slice], |w| &w[slice]),
                            &reweighted[slice],
                            delta,
                            ws,
                            telemetry,
                        ));
                    }
                });
            } else {
                // Static round-robin assignment: worker w owns dirty
                // slices w, w+threads, ... — deterministic, and stats
                // fold commutatively so join order is immaterial.
                let mut jobs: Vec<Vec<(usize, PlaneMut<'_>)>> =
                    (0..threads).map(|_| Vec::new()).collect();
                for (i, &slice) in dirty.iter().enumerate() {
                    let plane = planes[slice].take().expect("each plane taken once");
                    jobs[i % threads].push((slice, plane));
                }
                let reweighted_ref = &reweighted;
                let per_worker: Vec<RepairStats> = crossbeam::thread::scope(|scope| {
                    let handles: Vec<_> = jobs
                        .into_iter()
                        .map(|job| {
                            scope.spawn(move |_| {
                                let mut ws = SpfWorkspace::new();
                                let mut local = RepairStats::default();
                                for (slice, mut plane) in job {
                                    local.absorb(repair_plane_batched(
                                        g,
                                        slice,
                                        &mut plane,
                                        strategy,
                                        seed,
                                        &base_weights[slice],
                                        finals.map_or(&base_weights[slice], |w| &w[slice]),
                                        &reweighted_ref[slice],
                                        delta,
                                        &mut ws,
                                        telemetry,
                                    ));
                                }
                                local
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("repair worker panicked"))
                        .collect()
                })
                .expect("repair worker panicked");
                for s in per_worker {
                    stats.absorb(s);
                }
            }
        }
        Ok((
            Splicing {
                k: self.k,
                weights: match final_weights {
                    Some(w) => w.into(),
                    None => Arc::clone(&self.weights),
                },
                fib: Arc::new(fib),
                failed: if mask_changed {
                    Arc::new(mask)
                } else {
                    Arc::clone(&self.failed)
                },
                strategy: self.strategy,
                seed: self.seed,
            },
            stats,
        ))
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
        self.k * self.strategy.instance().slice_state_bytes(self.fib.n())
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
        let mut used = vec![false; self.weights[0].len()];
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
        let mask = EdgeMask::all_up(self.weights[0].len());
        self.successors_toward(dst, k_prefix, &mask)
            .iter()
            .map(|s| s.len())
            .sum()
    }
}

/// The [`RepairStats`] a masked full rebuild of one plane reports: every
/// column rewritten, nothing provably skippable, and the frontier counted
/// once per plane (one global pass recomputes the whole plane, unlike the
/// delta engine's per-column frontiers).
fn masked_rebuild_stats(g: &Graph) -> RepairStats {
    RepairStats {
        patched_columns: g.node_count(),
        skipped_columns: 0,
        frontier_nodes: g.node_count(),
    }
}

/// What a coalesced batch does to the failure mask, shared by every
/// plane: `with_failures` = `before` ∪ `newly_failed`, and `after` =
/// `with_failures` ∖ `restored` is the batch's final mask.
#[derive(Clone, Copy)]
struct MaskDelta<'a> {
    before: &'a EdgeMask,
    with_failures: &'a EdgeMask,
    after: &'a EdgeMask,
    newly_failed: &'a [EdgeId],
    restored: &'a [EdgeId],
}

/// Repair one plane against a coalesced batch: chain the slice's deduped
/// reweights (each pass exact, under the pre-batch mask), then one
/// failure pass for the whole union, then one restore pass under the
/// final mask. Each pass leaves the plane equal to a masked rebuild at
/// its (weights, mask). Rebuild-only strategies collapse to a single
/// masked rebuild at the final state.
///
/// `final_weights` must already hold every reweight's final value (it
/// aliases `base_weights` when the slice was not reweighted).
#[allow(clippy::too_many_arguments)]
fn repair_plane_batched(
    g: &Graph,
    slice: usize,
    plane: &mut PlaneMut<'_>,
    strategy: &dyn SliceStrategy,
    seed: u64,
    base_weights: &[f64],
    final_weights: &[f64],
    reweighted: &[EdgeId],
    delta: MaskDelta<'_>,
    ws: &mut SpfWorkspace,
    telemetry: Option<&SpfTelemetry>,
) -> RepairStats {
    let mut stats = RepairStats::default();
    if !strategy.supports_delta_repair() {
        // One masked rebuild at the batch's final (weights, mask) — by
        // the determinism contract this equals folding the events.
        strategy.fill_plane(
            g,
            slice,
            seed,
            final_weights,
            delta.after,
            ws,
            plane,
            telemetry,
        );
        stats.absorb(masked_rebuild_stats(g));
        return stats;
    }
    if !reweighted.is_empty() {
        // Walk the cumulative weight vector from pre-batch to final,
        // one exact delta pass per reweighted edge. The mask stays the
        // pre-batch one; failures and restores land afterwards.
        let mut cur = base_weights.to_vec();
        for &edge in reweighted {
            let old = cur[edge.index()];
            cur[edge.index()] = final_weights[edge.index()];
            stats.absorb(spf_repair_plane_reweight(
                g,
                &cur,
                plane,
                slice,
                delta.before,
                edge,
                old,
                ws,
                telemetry,
            ));
        }
    }
    if !delta.newly_failed.is_empty() {
        stats.absorb(spf_repair_plane_failures(
            g,
            final_weights,
            plane,
            slice,
            delta.with_failures,
            delta.newly_failed,
            ws,
            telemetry,
        ));
    }
    if !delta.restored.is_empty() {
        stats.absorb(spf_repair_plane_restores(
            g,
            final_weights,
            plane,
            slice,
            delta.after,
            delta.restored,
            ws,
            telemetry,
        ));
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
        // routing 0->3 via 2. Seed 0 does under rand 0.8's StdRng stream;
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
        assert_eq!(
            sp.state_bytes(),
            sp.k() * 2 * g.node_count() * g.node_count() * 4
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
        assert!(Splicing::try_build(&g, &SplicingConfig::uniform(2, 1.0), 5).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn zero_k_rejected() {
        let g = diamond();
        Splicing::build(&g, &SplicingConfig::degree_based(0, 0.0, 3.0), 1);
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
            .filter(|e| e.event.kind == "repair" && e.event.name == "patch_failures")
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
            .filter(|e| e.event.kind == "repair" && e.event.name == "patch_restore")
            .count();
        assert_eq!(passes, 3, "one restore pass per plane, nothing else");
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
        // The batch engine's `planes_mut` over `clone_prefix(2)` of a
        // 5-plane arena is the only repair path a prefix view has.
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
                    kind.instance().fill_slice(
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
    fn repair_batch_parallel_on_many_slices_matches_rebuild() {
        // k = 8 so the scoped-thread path actually fans out on multicore
        // CI; the oracle is a from-scratch masked rebuild per plane.
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
    fn repair_batch_matches_fold_for_rebuild_strategies() {
        let g = abilene().graph();
        for strategy in [
            StrategyKind::RandomSpanningTree,
            StrategyKind::LowStretchTree,
        ] {
            for k in [3, 8] {
                let config = SplicingConfig::degree_based(k, 0.0, 3.0).with_strategy(strategy);
                let sp = Splicing::build(&g, &config, 17);
                let events = mixed_batch(&sp);
                let folded = events.iter().fold(sp.clone(), |acc, ev| acc.repair(&g, ev));
                let batched = sp.repair_batch(&g, &events);
                assert_same_deployment(&g, &batched, &folded);
                // Forest planes are repaired on the calling thread, one
                // warm scratch for all k. The fan-out they no longer
                // take — two workers, a cold workspace each, planes dealt
                // round-robin — must land on the same bytes.
                let mut fanned = sp.arena().clone_prefix(k);
                let mut jobs = [Vec::new(), Vec::new()];
                for (slice, plane) in fanned.planes_mut().into_iter().enumerate() {
                    jobs[slice % 2].push((slice, plane));
                }
                std::thread::scope(|scope| {
                    for job in jobs {
                        scope.spawn(|| {
                            let mut ws = SpfWorkspace::new();
                            for (slice, mut plane) in job {
                                strategy.instance().fill_plane(
                                    &g,
                                    slice,
                                    17,
                                    batched.weights(slice),
                                    batched.failed_mask(),
                                    &mut ws,
                                    &mut plane,
                                    None,
                                );
                            }
                        });
                    }
                });
                assert!(
                    batched.arena().slabs() == fanned.slabs(),
                    "{strategy:?} k={k}"
                );
            }
        }
    }
}
