//! The differential replay engine: run one [`Scenario`] through the
//! production stack and every oracle, failing on the first divergence.
//!
//! For each scenario the engine builds the deployment with
//! `Splicing::build`, applies each scheduled event — failures, reweights
//! and recoveries alike — through the *incremental* production path
//! (`Splicing::repair`), and after the
//! build and after every event compares the full forwarding state
//! against from-scratch oracles:
//!
//! 1. every (slice, router, dst) next hop vs. a from-scratch oracle — a
//!    fresh masked Dijkstra for perturbed-SPF scenarios, or the
//!    strategy's own deterministic masked reconstruction for rebuild-only
//!    strategies (trees, arc-disjoint);
//! 2. every (slice, dst, node) distance vs. Bellman–Ford (SPF family
//!    only — tree slices do not route on shortest paths);
//! 3. sampled data-plane walks (`Forwarder::forward`) vs. an independent
//!    naive walker over the oracle tables;
//! 4. invariants: the shadow failure mask and weight vectors match the
//!    deployment's, repair stats stay within arena bounds, no installed
//!    next hop rides a failed link, every slice is loop-free toward every
//!    destination, NoRevisit headers never produce a persistent loop,
//!    BoundedSwitches walks never exceed their switch cap, and (until a
//!    slice is reweighted; SPF family only) per-slice distances respect
//!    the perturbation's stretch bound (Theorem A.1's `2Dk`, or `1 + b`
//!    for degree-based `Weight(0, b)`).
//!
//! Event semantics are the live control plane's: a reweight composes
//! against the weight the slice runs now and is dropped when the result
//! would leave the routable range
//! ([`splice_core::control::hops_still_count`]), and an
//! [`EventSpec::Recover`] goes through the same incremental path as
//! every other event (`RepairEvent::LinkRestore`), checked at its
//! checkpoint against tables the oracles build from scratch on the
//! restored topology.

use crate::oracle::{naive_walk, outcome_signature, OracleTables};
use crate::scenario::{EventSpec, PerturbationSpec, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use splice_core::control::hops_still_count;
use splice_core::forwarding::{Forwarder, ForwarderOptions, ForwardingOutcome};
use splice_core::perturb::TheoremA1;
use splice_core::recovery::HeaderStrategy;
use splice_core::slices::{PerturbationKind, RepairEvent, Splicing, SplicingConfig};
use splice_core::strategy::{with_spf_workspace, StrategyKind};
use splice_graph::bellman_ford::bellman_ford_masked;
use splice_graph::{EdgeId, EdgeMask, Graph, NodeId};
use splice_routing::spf::{FlightEvent, FlightRecorder};
use std::collections::HashSet;
use std::fmt;

/// The allowed stretch `D` for Theorem A.1 scenarios (spec char `a`).
pub const THEOREM_A1_D: f64 = 2.0;

/// First detected disagreement between the production stack and an
/// oracle, with enough context to read off what went wrong. `step` is 0
/// for the initial build and `i + 1` after event `i`.
#[derive(Clone, Debug, PartialEq)]
pub enum Divergence {
    /// The scenario itself cannot be replayed (unknown topology,
    /// out-of-range event ids, ...). Not a stack bug; shrink candidates
    /// that produce this are discarded.
    Setup(String),
    /// Arena next hop differs from a from-scratch masked Dijkstra.
    NextHop {
        /// Replay step the divergence appeared at.
        step: usize,
        /// Slice, router, and destination of the bad entry.
        slice: usize,
        /// Router holding the entry.
        router: u32,
        /// Destination column.
        dst: u32,
        /// What the production arena returned.
        got: Option<(u32, u32)>,
        /// What the oracle computed.
        want: Option<(u32, u32)>,
    },
    /// Dijkstra distance differs from Bellman–Ford.
    Distance {
        /// Replay step.
        step: usize,
        /// Slice and destination of the disagreeing column.
        slice: usize,
        /// Destination column.
        dst: u32,
        /// Node whose distance disagrees.
        node: u32,
        /// Dijkstra's answer.
        dijkstra: f64,
        /// Bellman–Ford's answer.
        bellman_ford: f64,
    },
    /// A sampled walk took a different course through the two planes.
    Walk {
        /// Replay step.
        step: usize,
        /// Flow endpoints.
        src: u32,
        /// Destination node.
        dst: u32,
        /// The per-hop slice choices driving the walk.
        hops: Vec<u8>,
        /// Production `Forwarder::forward` outcome signature.
        production: String,
        /// Naive oracle walker outcome signature.
        oracle: String,
    },
    /// A structural invariant failed (mask/weight drift, repair-stats
    /// bounds, loop freedom, switch caps, stretch bounds).
    Invariant {
        /// Replay step.
        step: usize,
        /// Which invariant.
        name: String,
        /// Human-readable specifics.
        detail: String,
    },
}

impl Divergence {
    /// Stable short label for the divergence class, used as the flight
    /// recorder's event name.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Divergence::Setup(_) => "setup",
            Divergence::NextHop { .. } => "next_hop",
            Divergence::Distance { .. } => "distance",
            Divergence::Walk { .. } => "walk",
            Divergence::Invariant { .. } => "invariant",
        }
    }

    /// The replay step the divergence appeared at (0 for setup failures
    /// and the initial build).
    pub fn step(&self) -> usize {
        match self {
            Divergence::Setup(_) => 0,
            Divergence::NextHop { step, .. }
            | Divergence::Distance { step, .. }
            | Divergence::Walk { step, .. }
            | Divergence::Invariant { step, .. } => *step,
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Setup(msg) => write!(f, "setup: {msg}"),
            Divergence::NextHop {
                step,
                slice,
                router,
                dst,
                got,
                want,
            } => write!(
                f,
                "next-hop divergence at step {step}: slice {slice}, router {router} -> dst {dst}: \
                 production {got:?} vs oracle {want:?}"
            ),
            Divergence::Distance {
                step,
                slice,
                dst,
                node,
                dijkstra,
                bellman_ford,
            } => write!(
                f,
                "distance divergence at step {step}: slice {slice}, dst {dst}, node {node}: \
                 dijkstra {dijkstra} vs bellman-ford {bellman_ford}"
            ),
            Divergence::Walk {
                step,
                src,
                dst,
                hops,
                production,
                oracle,
            } => write!(
                f,
                "walk divergence at step {step}: {src} -> {dst} hops {hops:?}: \
                 production {production} vs oracle {oracle}"
            ),
            Divergence::Invariant { step, name, detail } => {
                write!(f, "invariant {name} violated at step {step}: {detail}")
            }
        }
    }
}

/// Replay knobs. Defaults are what the soak binary and CI use.
#[derive(Clone, Debug)]
pub struct ReplayOptions {
    /// Sampled (src, dst, header) walks per checkpoint.
    pub walk_samples: usize,
    /// Hop budget for sampled walks.
    pub ttl: usize,
    /// **Fault injection (tests only):** pretend the repair engine
    /// forgot to patch this slice's columns on every incremental event —
    /// the bug class the harness exists to catch. `None` in real runs.
    pub skip_patch_slice: Option<usize>,
    /// Flight recorder to narrate the replay into: every incremental
    /// repair lands as a `repair_event`, and a failing replay ends with
    /// a `divergence` event. See [`flight_tail`] for the one-call dump.
    pub flight: Option<FlightRecorder>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            walk_samples: 24,
            ttl: 64,
            skip_patch_slice: None,
            flight: None,
        }
    }
}

/// What a clean replay did — the denominators for soak-run reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Events applied (equals the schedule length).
    pub events_applied: usize,
    /// (slice, router, dst) next-hop comparisons made.
    pub next_hop_checks: usize,
    /// (slice, dst, node) distance cross-checks made.
    pub distance_checks: usize,
    /// Sampled walks compared against the naive walker.
    pub walks_checked: usize,
}

/// Replay `sc` and differentially check every checkpoint.
pub fn replay(sc: &Scenario, opts: &ReplayOptions) -> Result<ReplayReport, Box<Divergence>> {
    let result = replay_inner(sc, opts);
    if let Err(div) = &result {
        if let Some(flight) = &opts.flight {
            flight.record(
                FlightEvent::new("divergence", div.kind_label()).field("step", div.step() as u64),
            );
        }
    }
    result
}

/// Re-replay `sc` with a fresh flight recorder attached and return the
/// last `tail` recorded events as JSONL — the black-box dump a failure
/// report ends with. The replay's outcome is discarded; only the
/// recorder's contents matter here.
pub fn flight_tail(sc: &Scenario, opts: &ReplayOptions, tail: usize) -> String {
    let flight = FlightRecorder::new(tail.max(1) * 4);
    let mut opts = opts.clone();
    opts.flight = Some(flight.clone());
    let _ = replay(sc, &opts);
    flight.tail_jsonl(tail)
}

/// The splicing configuration a scenario's spec implies — shared by the
/// replay engine and the batch-forwarding oracle so every harness builds
/// the identical deployment from the same spec string.
pub(crate) fn build_config(sc: &Scenario) -> SplicingConfig {
    match sc.perturbation {
        PerturbationSpec::DegreeBased => SplicingConfig::degree_based(sc.k, 0.0, 3.0),
        PerturbationSpec::TheoremA1 => SplicingConfig {
            k: sc.k,
            perturbation: PerturbationKind::TheoremA1(TheoremA1::new(THEOREM_A1_D, sc.k)),
            include_base_slice: true,
            strategy: StrategyKind::PerturbedSpf,
        },
    }
    .with_strategy(sc.strategy)
}

fn replay_inner(sc: &Scenario, opts: &ReplayOptions) -> Result<ReplayReport, Box<Divergence>> {
    let g = sc.topology.graph().map_err(Divergence::Setup)?;
    validate_events(sc, &g)?;

    let cfg = build_config(sc);
    let mut sp = Splicing::build(&g, &cfg, sc.build_seed);

    // Shadow state the oracles trust: what the weights and the failure
    // mask *should* be, tracked independently of the production stack.
    let mut shadow_weights: Vec<Vec<f64>> = (0..sc.k).map(|s| sp.weights(s).to_vec()).collect();
    let mut shadow_mask = EdgeMask::all_up(g.edge_count());
    let mut reweighted_slices: HashSet<usize> = HashSet::new();

    let mut report = ReplayReport::default();
    check_deployment(
        &g,
        &sp,
        &shadow_weights,
        &shadow_mask,
        &reweighted_slices,
        sc,
        0,
        opts,
        &mut report,
    )?;

    for (i, ev) in sc.events.iter().enumerate() {
        let step = i + 1;
        match ev {
            EventSpec::FailLink(e) => {
                shadow_mask.fail(EdgeId(*e));
                sp = apply_repair(&g, &sp, &RepairEvent::LinkFailure(EdgeId(*e)), step, opts)?;
            }
            EventSpec::FailGroup(es) => {
                let ids: Vec<EdgeId> = es.iter().map(|e| EdgeId(*e)).collect();
                for e in &ids {
                    shadow_mask.fail(*e);
                }
                sp = apply_repair(&g, &sp, &RepairEvent::LinkSetFailure(ids), step, opts)?;
            }
            EventSpec::FailNode(v) => {
                let node = NodeId(*v);
                for &(_, e) in g.neighbors(node) {
                    shadow_mask.fail(e);
                }
                sp = apply_repair(&g, &sp, &RepairEvent::NodeFailure(node), step, opts)?;
            }
            EventSpec::Reweight { slice, edge, milli } => {
                let slice = *slice as usize;
                let e = EdgeId(*edge);
                let new_weight = shadow_weights[slice][e.index()] * (*milli as f64 / 1000.0);
                // The live plane drops a reweight that leaves the
                // routable range; the checkpoint below then checks that
                // nothing changed.
                if hops_still_count(&shadow_weights[slice], e, new_weight) {
                    shadow_weights[slice][e.index()] = new_weight;
                    reweighted_slices.insert(slice);
                    sp = apply_repair(
                        &g,
                        &sp,
                        &RepairEvent::SliceReweight {
                            slice,
                            edge: e,
                            new_weight,
                        },
                        step,
                        opts,
                    )?;
                }
            }
            EventSpec::Recover(e) => {
                shadow_mask.restore(EdgeId(*e));
                sp = apply_repair(&g, &sp, &RepairEvent::LinkRestore(EdgeId(*e)), step, opts)?;
            }
        }
        check_deployment(
            &g,
            &sp,
            &shadow_weights,
            &shadow_mask,
            &reweighted_slices,
            sc,
            step,
            opts,
            &mut report,
        )?;
        report.events_applied += 1;
    }
    Ok(report)
}

/// Reject schedules whose ids fall outside the materialized graph (the
/// shrinker produces such candidates; they must not masquerade as stack
/// divergences).
pub(crate) fn validate_events(sc: &Scenario, g: &Graph) -> Result<(), Box<Divergence>> {
    let (n, m) = (g.node_count() as u32, g.edge_count() as u32);
    let bad = |msg: String| Err(Box::new(Divergence::Setup(msg)));
    for ev in &sc.events {
        match ev {
            EventSpec::FailLink(e) | EventSpec::Recover(e) if *e >= m => {
                return bad(format!("edge id {e} out of range (m = {m})"));
            }
            EventSpec::FailGroup(es) => {
                if let Some(e) = es.iter().find(|e| **e >= m) {
                    return bad(format!("edge id {e} out of range (m = {m})"));
                }
            }
            EventSpec::FailNode(v) if *v >= n => {
                return bad(format!("node id {v} out of range (n = {n})"));
            }
            EventSpec::Reweight { slice, edge, milli } => {
                if *slice as usize >= sc.k {
                    return bad(format!("slice {slice} out of range (k = {})", sc.k));
                }
                if *edge >= m {
                    return bad(format!("edge id {edge} out of range (m = {m})"));
                }
                if *milli == 0 {
                    return bad("reweight factor must be positive".into());
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// One incremental production step, with optional fault injection and
/// the repair-stats accounting invariant.
fn apply_repair(
    g: &Graph,
    sp: &Splicing,
    event: &RepairEvent,
    step: usize,
    opts: &ReplayOptions,
) -> Result<Splicing, Box<Divergence>> {
    let (next, stats) = sp
        .try_repair_batch_recycling(g, std::slice::from_ref(event), None, None)
        .expect("scenario reweights are positive and finite");
    if let Some(flight) = &opts.flight {
        flight.record(
            FlightEvent::new("repair_event", event.kind_label())
                .field("step", step as u64)
                .field("patched", stats.patched_columns as u64)
                .field("skipped", stats.skipped_columns as u64),
        );
    }
    let columns = sp.k() * g.node_count();
    if stats.patched_columns + stats.skipped_columns > columns {
        return Err(Box::new(Divergence::Invariant {
            step,
            name: "repair-stats-bounds".into(),
            detail: format!(
                "patched {} + skipped {} exceeds {} columns",
                stats.patched_columns, stats.skipped_columns, columns
            ),
        }));
    }
    match opts.skip_patch_slice {
        None => Ok(next),
        Some(sab) if sab >= sp.k() => Ok(next),
        Some(sab) => {
            // Fault injection: hand back the post-event deployment with
            // slice `sab`'s plane still holding its pre-event columns —
            // exactly what a repair engine that skipped `patch_column`
            // for that slice would install.
            let mut fib = next.arena().clone_prefix(sp.k());
            for u in g.nodes() {
                for t in g.nodes() {
                    fib.set(sab, u, t, sp.next_hop(sab, u, t));
                }
            }
            let weights: Vec<Vec<f64>> = (0..sp.k()).map(|s| next.weights(s).to_vec()).collect();
            Ok(Splicing::from_parts(
                weights,
                fib,
                next.failed_mask().clone(),
            ))
        }
    }
}

/// Oracle tables for rebuild-only strategies: re-run the strategy's
/// deterministic construction from scratch over the cumulative mask. The
/// production arena — whatever stack of incremental repairs produced it —
/// must hold exactly these columns. Shortest-path distances are not
/// defined for tree-shaped slices, so `dist` stays empty; the SPF-family
/// checks that read it are gated off for these strategies.
pub(crate) fn strategy_oracle(
    g: &Graph,
    kind: StrategyKind,
    seed: u64,
    weights: &[&[f64]],
    mask: &EdgeMask,
) -> OracleTables {
    let k = weights.len();
    let strategy = kind.instance();
    let mut fib = splice_routing::arena::SpliceFib::empty(k, g.node_count());
    with_spf_workspace(|ws| {
        for (slice, w) in weights.iter().enumerate() {
            strategy.fill_slice(g, slice, seed, w, mask, ws, &mut fib, None);
        }
    });
    let next = (0..k)
        .map(|slice| {
            g.nodes()
                .map(|t| g.nodes().map(|u| fib.lookup(slice, u, t)).collect())
                .collect()
        })
        .collect();
    OracleTables {
        next,
        dist: vec![Vec::new(); k],
    }
}

/// Compare one deployment against every oracle and invariant.
#[allow(clippy::too_many_arguments)]
fn check_deployment(
    g: &Graph,
    sp: &Splicing,
    shadow_weights: &[Vec<f64>],
    shadow_mask: &EdgeMask,
    reweighted_slices: &HashSet<usize>,
    sc: &Scenario,
    step: usize,
    opts: &ReplayOptions,
    report: &mut ReplayReport,
) -> Result<(), Box<Divergence>> {
    let k = sp.k();
    let fail = |d: Divergence| Err(Box::new(d));

    // Shadow-state drift: the deployment must carry exactly the weights
    // and failure mask the event history implies.
    if sp.failed_mask() != shadow_mask {
        return fail(Divergence::Invariant {
            step,
            name: "mask-drift".into(),
            detail: format!(
                "deployment mask fails {:?}, shadow fails {:?}",
                sp.failed_mask().failed_edges().collect::<Vec<_>>(),
                shadow_mask.failed_edges().collect::<Vec<_>>()
            ),
        });
    }
    for (s, shadow) in shadow_weights.iter().enumerate() {
        if sp.weights(s) != shadow.as_slice() {
            return fail(Divergence::Invariant {
                step,
                name: "weight-drift".into(),
                detail: format!("slice {s} weight vector differs from the event history's"),
            });
        }
    }

    // Oracle 1 + 2: from-scratch reconstruction per (slice, dst). For
    // perturbed-SPF the oracle is a fresh masked Dijkstra with
    // Bellman–Ford pinning the distances themselves; for rebuild-only
    // strategies the oracle re-runs the strategy's own deterministic
    // construction on the cumulative mask — any stacked incremental
    // repair must land on exactly that state. Distance cross-checks only
    // apply to the SPF family (tree strategies do not route on shortest
    // paths).
    let spf_family = sc.strategy == StrategyKind::PerturbedSpf;
    let weights: Vec<&[f64]> = (0..k).map(|s| sp.weights(s)).collect();
    let oracle = if spf_family {
        OracleTables::build(g, &weights, shadow_mask)
    } else {
        strategy_oracle(g, sc.strategy, sc.build_seed, &weights, shadow_mask)
    };
    for (slice, &w) in weights.iter().enumerate() {
        for t in g.nodes() {
            let bf = spf_family.then(|| bellman_ford_masked(g, t, w, Some(shadow_mask)));
            for u in g.nodes() {
                if let Some(bf) = &bf {
                    let (du, bu) = (oracle.dist[slice][t.index()][u.index()], bf[u.index()]);
                    report.distance_checks += 1;
                    if !((du.is_infinite() && bu.is_infinite()) || (du - bu).abs() < 1e-9) {
                        return fail(Divergence::Distance {
                            step,
                            slice,
                            dst: t.0,
                            node: u.0,
                            dijkstra: du,
                            bellman_ford: bu,
                        });
                    }
                }
                let got = sp.next_hop(slice, u, t);
                let want = oracle.next_hop(slice, u, t);
                report.next_hop_checks += 1;
                if got != want {
                    let enc = |h: Option<(NodeId, EdgeId)>| h.map(|(n, e)| (n.0, e.0));
                    return fail(Divergence::NextHop {
                        step,
                        slice,
                        router: u.0,
                        dst: t.0,
                        got: enc(got),
                        want: enc(want),
                    });
                }
            }
        }
    }

    // Strategy-agnostic structural invariants: no installed next hop
    // rides a failed link, and following one slice's columns toward a
    // destination never cycles (every construction promises loop-free
    // slices).
    for slice in 0..k {
        for t in g.nodes() {
            for u in g.nodes() {
                if let Some((_, e)) = sp.next_hop(slice, u, t) {
                    if !shadow_mask.is_up(e) {
                        return fail(Divergence::Invariant {
                            step,
                            name: "failed-link-next-hop".into(),
                            detail: format!(
                                "slice {slice}: router {} -> dst {} uses failed edge {}",
                                u.0, t.0, e.0
                            ),
                        });
                    }
                }
                let mut at = u;
                let mut hops = 0;
                while at != t {
                    let Some((nh, _)) = sp.next_hop(slice, at, t) else {
                        break;
                    };
                    at = nh;
                    hops += 1;
                    if hops > g.node_count() {
                        return fail(Divergence::Invariant {
                            step,
                            name: "slice-loop-freedom".into(),
                            detail: format!("slice {slice}: walk {} -> dst {} cycles", u.0, t.0),
                        });
                    }
                }
            }
        }
    }

    // Stretch bound (SPF family only: tree slices trade stretch away by
    // design): until a slice's weights are changed by a reweight event,
    // its masked distances stay within the perturbation factor of the
    // masked base (slice 0) distances.
    let factor = match sc.perturbation {
        PerturbationSpec::DegreeBased => 1.0 + 3.0,
        PerturbationSpec::TheoremA1 => 2.0 * THEOREM_A1_D * k as f64,
    };
    if spf_family && !reweighted_slices.contains(&0) {
        for slice in 1..k {
            if reweighted_slices.contains(&slice) {
                continue;
            }
            for t in g.nodes() {
                let base = &oracle.dist[0][t.index()];
                let sliced = &oracle.dist[slice][t.index()];
                for u in g.nodes() {
                    if base[u.index()].is_finite()
                        && sliced[u.index()] > factor * base[u.index()] + 1e-6
                    {
                        return fail(Divergence::Invariant {
                            step,
                            name: "stretch-bound".into(),
                            detail: format!(
                                "slice {slice} dist {} exceeds {factor} x base dist {} \
                                 for node {} -> dst {}",
                                sliced[u.index()],
                                base[u.index()],
                                u.0,
                                t.0
                            ),
                        });
                    }
                }
            }
        }
    }

    // Oracle 3: production data plane vs. the naive walker, over seeded
    // samples of flows and header strategies.
    let fwd = Forwarder::new(sp, shadow_mask);
    let fwd_opts = ForwarderOptions {
        ttl: opts.ttl,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(
        sc.build_seed ^ (step as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ 0xc0ffee,
    );
    let n = g.node_count() as u32;
    let strategies = [
        HeaderStrategy::Bernoulli { flip_prob: 0.5 },
        HeaderStrategy::FirstHopBiased { flip_prob: 0.7 },
        HeaderStrategy::NoRevisit { flip_prob: 0.6 },
        HeaderStrategy::BoundedSwitches {
            flip_prob: 0.8,
            max_switches: 2,
        },
    ];
    for sample in 0..opts.walk_samples {
        let src = NodeId(rng.gen_range(0..n));
        let dst = NodeId(rng.gen_range(0..n));
        if src == dst {
            continue;
        }
        let strategy = strategies[sample % strategies.len()];
        let base_slice = rng.gen_range(0..k);
        let hops = strategy.generate_hops(base_slice, 12, k, &mut rng);
        let header = splice_core::header::ForwardingBits::from_hops(&hops, k);
        let prod = fwd.forward(src, dst, header, &fwd_opts);
        let naive = naive_walk(&oracle, k, src, dst, header, fwd_opts.ttl);
        report.walks_checked += 1;
        let (psig, nsig) = (outcome_signature(&prod), outcome_signature(&naive));
        if psig != nsig {
            return fail(Divergence::Walk {
                step,
                src: src.0,
                dst: dst.0,
                hops,
                production: psig,
                oracle: nsig,
            });
        }
        // Loop/switch invariants on the production trace.
        if matches!(strategy, HeaderStrategy::NoRevisit { .. })
            && matches!(prod, ForwardingOutcome::PersistentLoop(_))
        {
            return fail(Divergence::Invariant {
                step,
                name: "no-revisit-loop-freedom".into(),
                detail: format!("persistent loop for {} -> {} hops {hops:?}", src.0, dst.0),
            });
        }
        if let HeaderStrategy::BoundedSwitches { max_switches, .. } = strategy {
            let switches = prod.trace().slice_switches();
            if switches > max_switches {
                return fail(Divergence::Invariant {
                    step,
                    name: "bounded-switches-cap".into(),
                    detail: format!(
                        "{switches} switches (> {max_switches}) for {} -> {} hops {hops:?}",
                        src.0, dst.0
                    ),
                });
            }
        }
    }
    Ok(())
}
