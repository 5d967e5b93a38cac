//! Name → [`Topology`] resolution, shared by every binary.
//!
//! Historically each driver matched `sprint|geant|abilene` by hand and
//! called `std::process::exit` on anything else, so the random families in
//! [`generators`] (and the testkit's prefix-stable `rand-N-M-S` scenario
//! grammar) were unreachable from the command line. This module is the one
//! resolver: named ISP maps plus seeded generator specs, with a typed
//! error surfaced only at each binary's `main`.
//!
//! Accepted names:
//!
//! | spec            | topology                                              |
//! |-----------------|-------------------------------------------------------|
//! | `abilene`       | 11-node Abilene backbone                              |
//! | `geant`         | 23-node GEANT backbone                                |
//! | `sprint`        | 52-node Rocketfuel Sprint backbone                    |
//! | `rand-N-M-S`    | ring of N + M random chords, seed S (testkit grammar) |
//! | `er-N-D-S`      | connected G(n, p) with mean degree D, seed S          |
//! | `ba-N-M-S`      | Barabási–Albert, M edges per new node, seed S         |
//! | `waxman-N-S`    | Waxman geometric graph (α = 0.9, β = 0.3), seed S     |
//! | `grid-R-C`      | R × C grid                                            |
//! | `ring-N`        | N-cycle                                               |
//! | `complete-N`    | K_N                                                   |
//!
//! Generated topologies are wrapped via [`Topology::from_graph`] and keep
//! their full spec as the topology name, so artifact files stay
//! self-describing (`fig3_reliability_rand-24-40-7_union.csv`).

use crate::model::Topology;
use crate::{abilene, geant, generators, sprint};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The built-in ISP maps, in the order help text lists them.
pub const NAMED_TOPOLOGIES: &[&str] = &["sprint", "geant", "abilene"];

/// Why a topology name failed to resolve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The name is neither a built-in map nor a known generator family.
    Unknown {
        /// The offending name.
        name: String,
    },
    /// A generator spec with a recognized family but malformed or
    /// out-of-range arguments.
    BadSpec {
        /// The offending spec.
        spec: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The generator family cannot produce a connected graph with these
    /// parameters (only `er-…`; 1000 draws all came out disconnected).
    Disconnected {
        /// The offending spec.
        spec: String,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Unknown { name } => write!(
                f,
                "unknown topology {name:?}; expected sprint|geant|abilene or a generator \
                 spec (rand-N-M-S, er-N-D-S, ba-N-M-S, waxman-N-S, grid-R-C, ring-N, complete-N)"
            ),
            TopologyError::BadSpec { spec, reason } => {
                write!(f, "bad topology spec {spec:?}: {reason}")
            }
            TopologyError::Disconnected { spec } => write!(
                f,
                "topology spec {spec:?} kept producing disconnected graphs; raise the degree"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Resolve a topology name or generator spec.
pub fn resolve(name: &str) -> Result<Topology, TopologyError> {
    match name {
        "abilene" => Ok(abilene::abilene()),
        "geant" => Ok(geant::geant()),
        "sprint" => Ok(sprint::sprint()),
        _ => resolve_generated(name),
    }
}

fn resolve_generated(spec: &str) -> Result<Topology, TopologyError> {
    let Some((family, rest)) = spec.split_once('-') else {
        return Err(TopologyError::Unknown {
            name: spec.to_string(),
        });
    };
    let args: Vec<&str> = rest.split('-').collect();
    let bad = |reason: String| TopologyError::BadSpec {
        spec: spec.to_string(),
        reason,
    };
    let arity = |want: usize, shape: &str| {
        if args.len() == want {
            Ok(())
        } else {
            Err(bad(format!("want {shape}")))
        }
    };
    let num = |field: &str, what: &str| {
        field
            .parse::<u64>()
            .map_err(|_| bad(format!("bad {what} {field:?}")))
    };
    let graph = match family {
        "rand" => {
            arity(3, "rand-N-M-S")?;
            let n = num(args[0], "node count")?;
            let extra = num(args[1], "chord count")?;
            let seed = num(args[2], "seed")?;
            if n < 3 {
                return Err(bad(format!("need >= 3 nodes, got {n}")));
            }
            generators::ring_with_chords(n as u32, extra as u32, seed)
        }
        "er" => {
            arity(3, "er-N-D-S")?;
            let n = num(args[0], "node count")? as usize;
            let degree = num(args[1], "mean degree")?;
            let seed = num(args[2], "seed")?;
            if n < 2 {
                return Err(bad(format!("need >= 2 nodes, got {n}")));
            }
            let p = degree as f64 / (n - 1) as f64;
            generators::try_connected_erdos_renyi(n, p, seed).ok_or(
                TopologyError::Disconnected {
                    spec: spec.to_string(),
                },
            )?
        }
        "ba" => {
            arity(3, "ba-N-M-S")?;
            let n = num(args[0], "node count")? as usize;
            let m = num(args[1], "attachment count")? as usize;
            let seed = num(args[2], "seed")?;
            if m == 0 {
                return Err(bad("attachment count must be >= 1".to_string()));
            }
            if n <= m {
                return Err(bad(format!("need more than {m} nodes, got {n}")));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            generators::barabasi_albert(n, m, &mut rng)
        }
        "waxman" => {
            arity(2, "waxman-N-S")?;
            let n = num(args[0], "node count")? as usize;
            let seed = num(args[1], "seed")?;
            if n < 2 {
                return Err(bad(format!("need >= 2 nodes, got {n}")));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            generators::waxman(n, 0.9, 0.3, &mut rng)
        }
        "grid" => {
            arity(2, "grid-R-C")?;
            let rows = num(args[0], "row count")? as usize;
            let cols = num(args[1], "column count")? as usize;
            if rows * cols < 2 {
                return Err(bad(format!("need >= 2 nodes, got {rows}x{cols}")));
            }
            generators::grid(rows, cols)
        }
        "ring" => {
            arity(1, "ring-N")?;
            let n = num(args[0], "node count")? as usize;
            if n < 3 {
                return Err(bad(format!("need >= 3 nodes, got {n}")));
            }
            generators::ring(n)
        }
        "complete" => {
            arity(1, "complete-N")?;
            let n = num(args[0], "node count")? as usize;
            if n < 2 {
                return Err(bad(format!("need >= 2 nodes, got {n}")));
            }
            generators::complete(n)
        }
        _ => {
            return Err(TopologyError::Unknown {
                name: spec.to_string(),
            })
        }
    };
    Ok(Topology::from_graph(spec, &graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_topologies_resolve() {
        for name in NAMED_TOPOLOGIES {
            let t = resolve(name).unwrap();
            assert_eq!(&t.name, name);
            assert!(t.node_count() > 0);
        }
    }

    #[test]
    fn rand_spec_matches_generator() {
        let t = resolve("rand-8-12-99").unwrap();
        assert_eq!(t.name, "rand-8-12-99");
        let g = t.graph();
        let reference = generators::ring_with_chords(8, 12, 99);
        assert_eq!(g.node_count(), reference.node_count());
        assert_eq!(g.edge_count(), reference.edge_count());
        for (a, b) in g.edges().iter().zip(reference.edges()) {
            assert_eq!((a.u, a.v, a.weight), (b.u, b.v, b.weight));
        }
    }

    #[test]
    fn generator_specs_resolve() {
        for spec in [
            "er-16-4-7",
            "ba-20-2-3",
            "waxman-24-5",
            "grid-3-4",
            "ring-6",
            "complete-5",
        ] {
            let t = resolve(spec).unwrap();
            assert_eq!(t.name, spec);
            assert!(t.node_count() >= 2, "{spec}");
            assert!(t.link_count() >= 1, "{spec}");
        }
    }

    #[test]
    fn ba_specs_resolve_to_the_same_graph_every_time() {
        // Target sets used to be iterated out of a `HashSet`, so edge ids
        // followed the process's hash seed.
        let edges = |spec: &str| -> Vec<(u32, u32, f64)> {
            let g = resolve(spec).unwrap().graph();
            g.edges().iter().map(|e| (e.u.0, e.v.0, e.weight)).collect()
        };
        let first = edges("ba-60-2-7");
        assert_eq!(first, edges("ba-60-2-7"));
        // Seed clique K_{m+1}, then m edges per later node.
        let (n, m) = (60, 2);
        assert_eq!(first.len(), m * (m + 1) / 2 + (n - m - 1) * m);
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        assert!(matches!(
            resolve("nope"),
            Err(TopologyError::Unknown { .. })
        ));
        assert!(matches!(
            resolve("zzz-1-2-3"),
            Err(TopologyError::Unknown { .. })
        ));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for spec in [
            "rand-3-4",
            "rand-2-4-1",
            "rand-x-4-1",
            "er-1-2-3",
            "ba-2-2-1",
            "ba-5-0-1",
            "grid-1-1",
            "ring-2",
            "complete-1",
            "waxman-1-1",
        ] {
            assert!(
                matches!(resolve(spec), Err(TopologyError::BadSpec { .. })),
                "accepted {spec:?}"
            );
        }
    }

    #[test]
    fn errors_render_usable_messages() {
        let e = resolve("nope").unwrap_err().to_string();
        assert!(e.contains("sprint|geant|abilene"), "{e}");
        let e = resolve("rand-2-0-0").unwrap_err().to_string();
        assert!(e.contains("rand-2-0-0"), "{e}");
    }
}
