//! # splice-cli
//!
//! The `splice` command-line tool: explore path splicing on built-in or
//! user-supplied topologies without writing Rust.
//!
//! ```text
//! splice info   --topology sprint
//! splice route  --topology geant --src pt --dst se --k 5 --fail pt-es
//! splice recover --topology sprint --src Seattle --dst "New York" --k 5 \
//!                --fail Seattle-Denver --scheme end-system
//! splice reliability --topology sprint --k 1,5,10 --p 0.05 --trials 300
//! splice exp run fig3 --topology abilene --trials 250
//! splice daemon --topology abilene --k 3 --duration-secs 5
//! splice testkit soak --trials 40 --seed 7
//! ```
//!
//! Every command parses its flags through one [`Flags`] grammar: it
//! rejects flags the command does not list as a [`Flag`], and a listed
//! flag that is not given reads as the default its [`Flag`] holds.
//!
//! Topologies can also be loaded from edge-list files via
//! `--file path.topo` (see `splice_topology::parse`).

use splice_graph::{EdgeId, EdgeMask, NodeId};
use splice_topology::{parse, Topology};
use std::collections::HashMap;

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgsError {
    /// A flag that takes a value appeared last.
    MissingValue {
        /// The offending flag.
        flag: String,
    },
    /// A value did not parse or is out of range.
    BadValue {
        /// The offending flag.
        flag: String,
        /// The value as given.
        value: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A flag the command does not take, or a stray operand.
    UnknownFlag {
        /// The offending argument.
        flag: String,
    },
    /// `--help` or `-h` was given; callers print usage and exit 0.
    Help,
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::MissingValue { flag } => write!(f, "missing value for {flag}"),
            ArgsError::BadValue {
                flag,
                value,
                reason,
            } => write!(f, "bad {flag} {value:?}: {reason}"),
            ArgsError::UnknownFlag { flag } => {
                write!(f, "unknown argument {flag:?} (try --help)")
            }
            ArgsError::Help => write!(f, "help requested"),
        }
    }
}

impl std::error::Error for ArgsError {}

impl From<ArgsError> for String {
    fn from(e: ArgsError) -> String {
        e.to_string()
    }
}

/// One flag a command accepts: its name without `--`, the placeholder
/// its value shows in help, its default, and a one-line description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flag {
    /// The name, without `--`.
    pub name: &'static str,
    /// The value's placeholder in help (`N`, `NAME`, `union|directed`).
    pub value: &'static str,
    /// The value an absent flag reads as, if it has one.
    pub default: Option<&'static str>,
    /// What the flag does, one line.
    pub help: &'static str,
}

/// A parsed command line: flag → values (flags may repeat), and the
/// flags the command accepts, whose defaults stand in for absent values.
#[derive(Clone, Debug, Default)]
pub struct Flags {
    values: HashMap<String, Vec<String>>,
    accepted: Vec<Flag>,
}

impl Flags {
    /// Parse `--flag value` pairs; repeated flags accumulate. A flag not
    /// in `accepted`, or a stray operand, is an
    /// [`ArgsError::UnknownFlag`], and `--help` or `-h` in a flag
    /// position is [`ArgsError::Help`].
    pub fn parse(args: &[String], accepted: &[Flag]) -> Result<Flags, ArgsError> {
        let mut values: HashMap<String, Vec<String>> = HashMap::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if flag == "--help" || flag == "-h" {
                return Err(ArgsError::Help);
            }
            let name = flag
                .strip_prefix("--")
                .filter(|name| accepted.iter().any(|a| a.name == *name))
                .ok_or_else(|| ArgsError::UnknownFlag { flag: flag.clone() })?;
            let value = args
                .next()
                .ok_or_else(|| ArgsError::MissingValue { flag: flag.clone() })?;
            values
                .entry(name.to_string())
                .or_default()
                .push(value.clone());
        }
        let accepted = accepted.to_vec();
        Ok(Flags { values, accepted })
    }

    /// Last value of a flag, else its default, if either exists.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
            .or_else(|| self.flag(name)?.default)
    }

    fn flag(&self, name: &str) -> Option<&Flag> {
        self.accepted.iter().find(|a| a.name == name)
    }

    /// A flag's value or default. Panics if the flag has neither: a
    /// flag read this way must have a default in the command's table.
    pub fn value(&self, name: &str) -> &str {
        self.get(name)
            .unwrap_or_else(|| panic!("--{name} is read as if it had a default, and has none"))
    }

    /// All values of a repeatable flag.
    pub fn get_all(&self, name: &str) -> &[String] {
        self.values.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A flag parsed as `T`, if given or defaulted.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgsError>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name)
            .map(|v| v.parse().map_err(|e: T::Err| bad_value(name, v, e)))
            .transpose()
    }

    /// A flag with a default, parsed as `T`.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgsError>
    where
        T::Err: std::fmt::Display,
    {
        let v = self.value(name);
        v.parse().map_err(|e: T::Err| bad_value(name, v, e))
    }

    /// A count that must be at least 1 (`--k`, `--trials`), if given or
    /// defaulted.
    pub fn get_count(&self, name: &str) -> Result<Option<usize>, ArgsError> {
        match self.get_opt::<usize>(name)? {
            Some(0) => Err(bad_value(name, "0", "must be at least 1")),
            n => Ok(n),
        }
    }

    /// A flag with a default whose value is one token of a closed set:
    /// `parse` maps a token to its value, and the flag's placeholder
    /// (`a|b|c`) lists the tokens for the error ("must be a, b or c").
    pub fn get_choice<T>(&self, name: &str, parse: fn(&str) -> Option<T>) -> Result<T, ArgsError> {
        let v = self.value(name);
        parse(v).ok_or_else(|| {
            let tokens = self.flag(name).map_or("", |f| f.value);
            let expected = match tokens.rsplit_once('|') {
                Some((rest, last)) => format!("{} or {last}", rest.replace('|', ", ")),
                None => tokens.to_string(),
            };
            bad_value(name, v, format!("must be {expected}"))
        })
    }

    /// A comma-separated list flag with a default, parsed as `Vec<T>`.
    pub fn get_list<T: std::str::FromStr>(&self, name: &str) -> Result<Vec<T>, ArgsError>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .split(',')
            .map(|x| x.trim().parse().map_err(|e: T::Err| bad_value(name, x, e)))
            .collect()
    }

    /// A comma-separated list of counts, each at least 1 (`--k 1,5,10`).
    pub fn get_counts(&self, name: &str) -> Result<Vec<usize>, ArgsError> {
        let counts = self.get_list(name)?;
        if counts.contains(&0) {
            return Err(bad_value(name, "0", "must be at least 1"));
        }
        Ok(counts)
    }
}

fn bad_value(name: &str, value: &str, reason: impl std::fmt::Display) -> ArgsError {
    ArgsError::BadValue {
        flag: format!("--{name}"),
        value: value.to_string(),
        reason: reason.to_string(),
    }
}

/// Resolve the topology from `--topology name` or `--file path`.
///
/// Names accept the built-ins (`sprint`, `geant`, `abilene`) and any
/// generator spec understood by [`splice_topology::resolve`], e.g.
/// `rand-24-40-7` or `grid-4-6`.
pub fn resolve_topology(flags: &Flags) -> Result<Topology, String> {
    if let Some(path) = flags.get("file") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("file");
        return parse::parse_edge_list(name, &text).map_err(|e| e.to_string());
    }
    splice_topology::resolve(flags.value("topology")).map_err(|e| e.to_string())
}

/// Resolve a node by name (exact, then case-insensitive).
pub fn resolve_node(topo: &Topology, name: &str) -> Result<NodeId, String> {
    if let Some(id) = topo.node_by_name(name) {
        return Ok(id);
    }
    let lower = name.to_lowercase();
    topo.nodes
        .iter()
        .position(|n| n.name.to_lowercase() == lower)
        .map(|i| NodeId(i as u32))
        .ok_or_else(|| format!("no node named {name:?} in {}", topo.name))
}

/// Parse repeated `--fail a-b` flags into a failure mask.
pub fn resolve_failures(topo: &Topology, flags: &Flags) -> Result<EdgeMask, String> {
    let g = topo.graph();
    let mut mask = EdgeMask::all_up(g.edge_count());
    for spec in flags.get_all("fail") {
        let (a, b) = spec
            .split_once('-')
            .ok_or_else(|| format!("--fail expects a-b, got {spec:?}"))?;
        let (na, nb) = (resolve_node(topo, a.trim())?, resolve_node(topo, b.trim())?);
        let e = g
            .find_edge(na, nb)
            .ok_or_else(|| format!("no link {a} - {b} in {}", topo.name))?;
        mask.fail(e);
    }
    // Also accept --fail-edge <id> for scripted use.
    for spec in flags.get_all("fail-edge") {
        let id: u32 = spec
            .parse()
            .map_err(|_| format!("bad --fail-edge {spec:?}"))?;
        if (id as usize) >= g.edge_count() {
            return Err(format!("edge id {id} out of range"));
        }
        mask.fail(EdgeId(id));
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag any test here passes; `p` and `topology` have defaults.
    const ANY: &[Flag] = &[
        flag("k", None),
        flag("p", Some("9")),
        flag("topology", Some("sprint")),
        flag("file", None),
        flag("fail", None),
        flag("fail-edge", None),
    ];

    const fn flag(name: &'static str, default: Option<&'static str>) -> Flag {
        Flag {
            name,
            value: "V",
            default,
            help: "",
        }
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn flags(s: &[&str]) -> Flags {
        Flags::parse(&argv(s), ANY).unwrap()
    }

    #[test]
    fn flag_parsing() {
        let f = flags(&["--k", "5", "--fail", "a-b", "--fail", "c-d"]);
        assert_eq!(f.get("k"), Some("5"));
        assert_eq!(f.get_all("fail"), &["a-b".to_string(), "c-d".to_string()]);
        assert_eq!(f.get_parsed::<usize>("k").unwrap(), 5);
        assert_eq!(
            f.get_parsed::<usize>("p").unwrap(),
            9,
            "default when absent"
        );
        assert_eq!(f.get("file"), None, "no value, no default");
    }

    #[test]
    fn flag_errors_are_typed() {
        let parse = |s: &[&str]| Flags::parse(&argv(s), &ANY[..1]);
        assert!(matches!(parse(&["--k"]), Err(ArgsError::MissingValue { flag }) if flag == "--k"));
        assert!(matches!(
            parse(&["stray"]),
            Err(ArgsError::UnknownFlag { .. })
        ));
        assert!(
            matches!(parse(&["--kk", "5"]), Err(ArgsError::UnknownFlag { flag }) if flag == "--kk")
        );
        assert_eq!(parse(&["--k", "5", "--help"]).unwrap_err(), ArgsError::Help);
        assert_eq!(parse(&["-h"]).unwrap_err(), ArgsError::Help);
        let f = flags(&["--k", "abc"]);
        assert!(matches!(
            f.get_parsed::<usize>("k"),
            Err(ArgsError::BadValue { flag, .. }) if flag == "--k"
        ));
        let choice = [Flag {
            name: "mode",
            value: "a|b|c",
            default: Some("a"),
            help: "",
        }];
        let pick = |s: &[&str]| {
            Flags::parse(&argv(s), &choice)
                .unwrap()
                .get_choice("mode", |t| (t != "d").then_some(t.len()))
        };
        assert_eq!(pick(&[]).unwrap(), 1, "the default parses");
        assert_eq!(
            pick(&["--mode", "d"]).unwrap_err().to_string(),
            r#"bad --mode "d": must be a, b or c"#
        );
        assert!(flags(&["--k", "0"]).get_count("k").is_err());
        assert_eq!(flags(&["--k", "2"]).get_count("k").unwrap(), Some(2));
        assert_eq!(flags(&[]).get_count("k").unwrap(), None);
    }

    #[test]
    fn list_flags() {
        let f = flags(&["--k", "1,3, 5"]);
        assert_eq!(f.get_list::<usize>("k").unwrap(), vec![1, 3, 5]);
        assert_eq!(f.get_counts("k").unwrap(), vec![1, 3, 5]);
        assert_eq!(
            f.get_list::<usize>("p").unwrap(),
            vec![9],
            "default when absent"
        );
        // A zero count is rejected inside a list as it is alone.
        for list in ["0", "1,0"] {
            assert!(matches!(
                flags(&["--k", list]).get_counts("k"),
                Err(ArgsError::BadValue { flag, .. }) if flag == "--k"
            ));
        }
    }

    #[test]
    fn topology_resolution() {
        let f = flags(&["--topology", "geant"]);
        assert_eq!(resolve_topology(&f).unwrap().node_count(), 23);
        let f = flags(&["--topology", "nope"]);
        assert!(resolve_topology(&f).is_err());
        let f = flags(&[]);
        assert_eq!(resolve_topology(&f).unwrap().name, "sprint");
        let f = flags(&["--topology", "rand-24-40-7"]);
        assert_eq!(resolve_topology(&f).unwrap().node_count(), 24);
    }

    #[test]
    fn node_resolution_case_insensitive() {
        let topo = splice_topology::sprint::sprint();
        assert!(resolve_node(&topo, "Seattle").is_ok());
        assert!(resolve_node(&topo, "seattle").is_ok());
        assert!(resolve_node(&topo, "Atlantis").is_err());
    }

    #[test]
    fn failure_specs() {
        let topo = splice_topology::abilene::abilene();
        let f = flags(&["--fail", "Seattle-Denver"]);
        let mask = resolve_failures(&topo, &f).unwrap();
        assert_eq!(mask.failed_count(), 1);
        let f = flags(&["--fail", "Seattle+Denver"]);
        assert!(resolve_failures(&topo, &f).is_err());
        let f = flags(&["--fail", "Seattle-Miami"]);
        assert!(resolve_failures(&topo, &f).is_err(), "no such link");
        let f = flags(&["--fail-edge", "0"]);
        assert_eq!(resolve_failures(&topo, &f).unwrap().failed_count(), 1);
        let f = flags(&["--fail-edge", "999"]);
        assert!(resolve_failures(&topo, &f).is_err());
    }

    #[test]
    fn file_topology() {
        let dir = std::env::temp_dir().join("splice-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.topo");
        std::fs::write(&path, "a b 1.0\nb c 2.0\n").unwrap();
        let f = flags(&["--file", path.to_str().unwrap()]);
        let topo = resolve_topology(&f).unwrap();
        assert_eq!(topo.node_count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
