//! The scenario model: a topology plus an event schedule, fully
//! determined by (and re-creatable from) a compact seed-spec string.
//!
//! A [`Scenario`] is the unit of work for the whole harness: the soak
//! binary generates them from a trial seed, the replay engine runs them
//! through the production stack and the oracles, and the shrinker edits
//! them looking for a smaller scenario that still fails. Every scenario
//! round-trips through [`Scenario::spec`] / [`Scenario::from_spec`], so a
//! failure anywhere prints one token that reproduces it exactly:
//!
//! ```text
//! splice testkit replay rand-8-12-99/k3d/tree/s7/f4+g2.7+n1+w2.5.1500+r4
//! ```
//!
//! The third segment names the slice-construction strategy
//! ([`StrategyKind::parse`] tokens); legacy four-segment specs without it
//! parse as perturbed-SPF, so pre-strategy repro tokens keep replaying.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use splice_core::control::ControlEvent;
use splice_core::strategy::StrategyKind;
use splice_graph::Graph;

/// Split-mix the trial index into an independent seed stream (same
/// construction as `splice_sim::parallel::derive_seed`, reimplemented
/// here so the testkit stays below `splice-sim` in the crate graph).
pub fn derive_seed(base: u64, stream: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(stream.wrapping_mul(0x9e3779b97f4a7c15))
        .wrapping_add(index.wrapping_mul(0xbf58476d1ce4e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Where the scenario's graph comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// A built-in ISP map: `abilene`, `geant`, or `sprint`.
    Named(String),
    /// A seeded random graph: ring backbone `0..nodes` (unit weights,
    /// guaranteeing initial connectivity) plus `extra` random chords.
    ///
    /// Chords are drawn one at a time with a fixed number of RNG draws
    /// each, so `extra - 1` yields a strict prefix of the same graph —
    /// the property the shrinker's remove-edges pass relies on.
    Random {
        /// Ring size (≥ 3).
        nodes: u32,
        /// Extra chord count.
        extra: u32,
        /// Chord RNG seed.
        seed: u64,
    },
}

impl TopologySpec {
    /// Materialize the graph. Deterministic: same spec, same graph.
    pub fn graph(&self) -> Result<Graph, String> {
        match self {
            // Shared resolver: named ISP maps, and (transitively) any
            // generator spec the CLI accepts.
            TopologySpec::Named(name) => splice_topology::resolve(name)
                .map(|t| t.graph())
                .map_err(|e| e.to_string()),
            TopologySpec::Random { nodes, extra, seed } => {
                let n = *nodes;
                if n < 3 {
                    return Err(format!("random topology needs >= 3 nodes, got {n}"));
                }
                // The chord construction lives in the topology crate now
                // (`--topology rand-N-M-S` resolves to the same graphs);
                // the draw sequence there is frozen for prefix stability.
                Ok(splice_topology::generators::ring_with_chords(
                    n, *extra, *seed,
                ))
            }
        }
    }

    fn spec(&self) -> String {
        match self {
            TopologySpec::Named(name) => name.clone(),
            TopologySpec::Random { nodes, extra, seed } => {
                format!("rand-{nodes}-{extra}-{seed}")
            }
        }
    }

    fn from_spec(s: &str) -> Result<TopologySpec, String> {
        if let Some(rest) = s.strip_prefix("rand-") {
            let parts: Vec<&str> = rest.split('-').collect();
            if parts.len() != 3 {
                return Err(format!(
                    "bad random topology spec {s:?}; want rand-N-X-SEED"
                ));
            }
            let parse = |field: &str, what: &str| {
                field
                    .parse::<u64>()
                    .map_err(|_| format!("bad {what} in topology spec {s:?}"))
            };
            Ok(TopologySpec::Random {
                nodes: parse(parts[0], "node count")? as u32,
                extra: parse(parts[1], "extra-edge count")? as u32,
                seed: parse(parts[2], "seed")?,
            })
        } else {
            Ok(TopologySpec::Named(s.to_string()))
        }
    }
}

/// One scheduled control-plane event. Link/node ids refer to the
/// materialized graph's id space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventSpec {
    /// Fail one link (`f<edge>`).
    FailLink(u32),
    /// Fail a shared-risk group of links at once (`g<e1>.<e2>...`).
    FailGroup(Vec<u32>),
    /// Fail a node: all incident links go down (`n<node>`).
    FailNode(u32),
    /// Reweight one edge in one slice to `old * milli / 1000`
    /// (`w<slice>.<edge>.<milli>`).
    Reweight {
        /// Slice whose weight vector changes.
        slice: u32,
        /// The reweighted edge.
        edge: u32,
        /// New weight as a permille of the current weight (> 0).
        milli: u32,
    },
    /// Restore a failed link (`r<edge>`); a no-op on a link that is up.
    Recover(u32),
}

impl EventSpec {
    fn spec(&self) -> String {
        match self {
            EventSpec::FailLink(e) => format!("f{e}"),
            EventSpec::FailGroup(es) => {
                let ids: Vec<String> = es.iter().map(|e| e.to_string()).collect();
                format!("g{}", ids.join("."))
            }
            EventSpec::FailNode(v) => format!("n{v}"),
            EventSpec::Reweight { slice, edge, milli } => format!("w{slice}.{edge}.{milli}"),
            EventSpec::Recover(e) => format!("r{e}"),
        }
    }

    /// One grammar, one parser: the daemon's ([`ControlEvent::parse`]),
    /// converted to the testkit's id-typed twin.
    fn from_spec(s: &str) -> Result<EventSpec, String> {
        Ok(match ControlEvent::parse(s)? {
            ControlEvent::FailLink(e) => EventSpec::FailLink(e.0),
            ControlEvent::FailGroup(es) => EventSpec::FailGroup(es.iter().map(|e| e.0).collect()),
            ControlEvent::FailNode(v) => EventSpec::FailNode(v.0),
            ControlEvent::Reweight { slice, edge, milli } => EventSpec::Reweight {
                slice: slice as u32,
                edge: edge.0,
                milli,
            },
            ControlEvent::Recover(e) => EventSpec::Recover(e.0),
        })
    }
}

/// Which perturbation family the scenario builds its slices with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PerturbationSpec {
    /// The paper's degree-based `Weight(0, 3)` (spec char `d`).
    DegreeBased,
    /// Theorem A.1's full-range redraw with `D = 2` (spec char `a`);
    /// scenarios built this way additionally assert the theorem's
    /// stretch bound.
    TheoremA1,
}

/// A complete, replayable fault-injection scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Graph source.
    pub topology: TopologySpec,
    /// Slice count for the deployment under test.
    pub k: usize,
    /// Slice-construction family.
    pub perturbation: PerturbationSpec,
    /// Slice-construction strategy (perturbed-SPF, trees, arc-disjoint).
    pub strategy: StrategyKind,
    /// Seed for `Splicing::build`.
    pub build_seed: u64,
    /// The ordered event schedule.
    pub events: Vec<EventSpec>,
}

impl Scenario {
    /// The canonical one-token spec:
    /// `<topo>/k<k><p>/<strategy>/s<seed>/<events>`, events `+`-joined
    /// (empty segment for none).
    pub fn spec(&self) -> String {
        let p = match self.perturbation {
            PerturbationSpec::DegreeBased => 'd',
            PerturbationSpec::TheoremA1 => 'a',
        };
        let events: Vec<String> = self.events.iter().map(EventSpec::spec).collect();
        format!(
            "{}/k{}{}/{}/s{}/{}",
            self.topology.spec(),
            self.k,
            p,
            self.strategy.name(),
            self.build_seed,
            events.join("+")
        )
    }

    /// Parse a spec produced by [`Scenario::spec`]. The strategy segment
    /// is optional on input (legacy four-segment specs replay as
    /// perturbed-SPF) but always present in emitted specs.
    pub fn from_spec(spec: &str) -> Result<Scenario, String> {
        let parts: Vec<&str> = spec.split('/').collect();
        let (strategy, seed_seg, events_seg) = match parts.len() {
            4 => (StrategyKind::PerturbedSpf, parts[2], parts[3]),
            5 => {
                let strategy = StrategyKind::parse(parts[2])
                    .ok_or_else(|| format!("bad strategy token {:?} in {spec:?}", parts[2]))?;
                (strategy, parts[3], parts[4])
            }
            _ => {
                return Err(format!(
                    "bad scenario spec {spec:?}; want <topo>/k<k><p>/<strategy>/s<seed>/<events>"
                ));
            }
        };
        let topology = TopologySpec::from_spec(parts[0])?;
        let kseg = parts[1]
            .strip_prefix('k')
            .ok_or_else(|| format!("bad k segment {:?} in {spec:?}", parts[1]))?;
        let (knum, pch) = kseg.split_at(kseg.len().saturating_sub(1));
        let perturbation = match pch {
            "d" => PerturbationSpec::DegreeBased,
            "a" => PerturbationSpec::TheoremA1,
            other => return Err(format!("bad perturbation {other:?} in {spec:?}")),
        };
        let k: usize = knum
            .parse()
            .map_err(|_| format!("bad slice count {knum:?} in {spec:?}"))?;
        if k == 0 {
            return Err(format!("slice count must be >= 1 in {spec:?}"));
        }
        let build_seed: u64 = seed_seg
            .strip_prefix('s')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad seed segment {seed_seg:?} in {spec:?}"))?;
        let events = if events_seg.is_empty() {
            Vec::new()
        } else {
            events_seg
                .split('+')
                .map(EventSpec::from_spec)
                .collect::<Result<Vec<_>, _>>()?
        };
        Ok(Scenario {
            topology,
            k,
            perturbation,
            strategy,
            build_seed,
            events,
        })
    }

    /// Generate a random scenario from one trial seed: topology shape,
    /// slice count, perturbation family, and a 0–6 event schedule with
    /// all five event kinds represented across trials.
    pub fn generate(trial_seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(trial_seed);
        // Mostly random graphs (they shrink well); occasionally the real
        // Abilene map so the named path stays exercised.
        let topology = if rng.gen_bool(0.15) {
            TopologySpec::Named("abilene".into())
        } else {
            TopologySpec::Random {
                nodes: rng.gen_range(3..=10),
                extra: rng.gen_range(0..=14),
                seed: rng.gen(),
            }
        };
        let g = topology
            .graph()
            .expect("generated topology specs are always materializable");
        let (n, m) = (g.node_count() as u32, g.edge_count() as u32);
        let k = rng.gen_range(1..=5usize);
        let perturbation = if rng.gen_bool(0.25) {
            PerturbationSpec::TheoremA1
        } else {
            PerturbationSpec::DegreeBased
        };
        // Mostly the paper's perturbed-SPF (it exercises the delta-repair
        // engine); the rebuild-only constructions each keep a lane.
        let strategy = match rng.gen_range(0..8u32) {
            0 => StrategyKind::RandomSpanningTree,
            1 => StrategyKind::LowStretchTree,
            2 => StrategyKind::ArcDisjointFailover,
            _ => StrategyKind::PerturbedSpf,
        };
        let n_events = rng.gen_range(0..=6usize);
        let mut events = Vec::with_capacity(n_events);
        let mut failed: Vec<u32> = Vec::new();
        for _ in 0..n_events {
            let ev = match rng.gen_range(0..10u32) {
                0..=3 => EventSpec::FailLink(rng.gen_range(0..m)),
                4..=5 => {
                    let size = rng.gen_range(2..=3.min(m as usize));
                    let mut ids: Vec<u32> = (0..size).map(|_| rng.gen_range(0..m)).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    EventSpec::FailGroup(ids)
                }
                6 => EventSpec::FailNode(rng.gen_range(0..n)),
                7..=8 => EventSpec::Reweight {
                    slice: rng.gen_range(0..k as u32),
                    edge: rng.gen_range(0..m),
                    // 0.15x .. 6x, never 1000 (a true change).
                    milli: [150, 400, 700, 1300, 2500, 6000][rng.gen_range(0..6)],
                },
                _ => {
                    // Recover something that plausibly failed earlier,
                    // else an arbitrary link (a no-op recover is legal).
                    match failed.len() {
                        0 => EventSpec::Recover(rng.gen_range(0..m)),
                        len => EventSpec::Recover(failed[rng.gen_range(0..len)]),
                    }
                }
            };
            match &ev {
                EventSpec::FailLink(e) => failed.push(*e),
                EventSpec::FailGroup(es) => failed.extend(es),
                _ => {}
            }
            events.push(ev);
        }
        Scenario {
            topology,
            k,
            perturbation,
            strategy,
            build_seed: rng.gen(),
            events,
        }
    }

    /// The one-line command that reproduces this scenario.
    pub fn replay_command(&self) -> String {
        format!("splice testkit replay {}", self.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrip() {
        let sc = Scenario {
            topology: TopologySpec::Random {
                nodes: 8,
                extra: 12,
                seed: 99,
            },
            k: 3,
            perturbation: PerturbationSpec::DegreeBased,
            strategy: StrategyKind::PerturbedSpf,
            build_seed: 7,
            events: vec![
                EventSpec::FailLink(4),
                EventSpec::FailGroup(vec![2, 7]),
                EventSpec::FailNode(1),
                EventSpec::Reweight {
                    slice: 2,
                    edge: 5,
                    milli: 1500,
                },
                EventSpec::Recover(4),
            ],
        };
        assert_eq!(
            sc.spec(),
            "rand-8-12-99/k3d/perturbed-spf/s7/f4+g2.7+n1+w2.5.1500+r4"
        );
        assert_eq!(Scenario::from_spec(&sc.spec()).unwrap(), sc);

        let tree = Scenario {
            strategy: StrategyKind::RandomSpanningTree,
            ..sc.clone()
        };
        assert_eq!(
            tree.spec(),
            "rand-8-12-99/k3d/tree/s7/f4+g2.7+n1+w2.5.1500+r4"
        );
        assert_eq!(Scenario::from_spec(&tree.spec()).unwrap(), tree);

        let named = Scenario {
            topology: TopologySpec::Named("abilene".into()),
            k: 5,
            perturbation: PerturbationSpec::TheoremA1,
            strategy: StrategyKind::ArcDisjointFailover,
            build_seed: 123,
            events: vec![],
        };
        assert_eq!(named.spec(), "abilene/k5a/arc/s123/");
        assert_eq!(Scenario::from_spec(&named.spec()).unwrap(), named);
    }

    #[test]
    fn legacy_specs_without_strategy_parse_as_perturbed_spf() {
        let sc = Scenario::from_spec("rand-8-12-99/k3d/s7/f4+n1").unwrap();
        assert_eq!(sc.strategy, StrategyKind::PerturbedSpf);
        assert_eq!(sc.k, 3);
        assert_eq!(sc.build_seed, 7);
        assert_eq!(sc.events.len(), 2);
        // Re-emitting upgrades to the five-segment form.
        assert_eq!(sc.spec(), "rand-8-12-99/k3d/perturbed-spf/s7/f4+n1");
        // Aliases parse to the same strategy as the canonical token.
        assert_eq!(
            Scenario::from_spec("abilene/k2d/spf/s1/").unwrap().strategy,
            StrategyKind::PerturbedSpf
        );
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "",
            "abilene",
            "abilene/k3d/s7",
            "nope/k3d/s7/",
            "abilene/3d/s7/",
            "abilene/k0d/s7/",
            "abilene/kxd/s7/",
            "abilene/k3z/s7/",
            "abilene/k3d/7/",
            "abilene/k3d/s7/z9",
            "abilene/k3d/s7/w1.2",
            "abilene/k3d/s7/w1.2.0",
            "abilene/k3d/s7/g",
            // A first char wider than one byte must not split mid-char.
            "abilene/k2d/s1/é4",
            "abilene/k2d/s1/\u{fffd}",
            "abilene/k2d/s1/f1+€",
            "rand-3-4/k1d/s0/",
            "abilene/k3d/bogus/s7/",
            "abilene/k3d/tree/7/",
            "abilene/k3d/tree/s7/f1/extra",
        ] {
            let parsed = Scenario::from_spec(bad).and_then(|sc| sc.topology.graph());
            assert!(parsed.is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn random_topology_extra_is_a_prefix() {
        let big = TopologySpec::Random {
            nodes: 9,
            extra: 10,
            seed: 5,
        }
        .graph()
        .unwrap();
        let small = TopologySpec::Random {
            nodes: 9,
            extra: 6,
            seed: 5,
        }
        .graph()
        .unwrap();
        assert_eq!(small.edge_count() + 4, big.edge_count());
        for e in small.edge_ids() {
            let (a, b) = (small.edge(e), big.edge(e));
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert_eq!(a.weight, b.weight);
        }
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        for trial in 0..200u64 {
            let a = Scenario::generate(derive_seed(7, 0, trial));
            let b = Scenario::generate(derive_seed(7, 0, trial));
            assert_eq!(a, b);
            // Every generated scenario round-trips through its spec.
            assert_eq!(Scenario::from_spec(&a.spec()).unwrap(), a);
            let g = a.topology.graph().unwrap();
            for ev in &a.events {
                match ev {
                    EventSpec::FailLink(e) | EventSpec::Recover(e) => {
                        assert!((*e as usize) < g.edge_count())
                    }
                    EventSpec::FailGroup(es) => es
                        .iter()
                        .for_each(|e| assert!((*e as usize) < g.edge_count())),
                    EventSpec::FailNode(v) => assert!((*v as usize) < g.node_count()),
                    EventSpec::Reweight { slice, edge, milli } => {
                        assert!((*slice as usize) < a.k);
                        assert!((*edge as usize) < g.edge_count());
                        assert!(*milli > 0);
                    }
                }
            }
        }
    }
}
