//! # splice-bench
//!
//! The regenerator of the paper's figures and tables: the `splice-lab`
//! binary drives every one of them (plus the extensions, ablations, and
//! baselines) through one [`splice_sim::lab`] engine, and Criterion
//! micro-benchmarks cover the primitives. Throughput and latency of the
//! shipped pipeline are measured by the end-to-end benchmark in `e2e/`
//! (`BENCHMARK.json`), not here.
//!
//! | Paper artifact | `splice-lab run …` |
//! |---|---|
//! | Figure 3 (reliability) | `fig3_reliability` (alias `fig3`) |
//! | Figure 4 (end-system recovery) | `fig4_end_system_recovery` (alias `fig4`) |
//! | Figure 5 (network-based recovery) | `fig5_network_recovery` (alias `fig5`) |
//! | Table 1 (summary) | `table1` |
//! | §4.3 stretch/trials numbers | `stretch_stats` |
//! | §4.4 loop frequencies | `loop_stats` |
//! | Theorem A.1 scaling | `scaling_lognslices` |
//! | Theorem B.1 concentration | `theorem_b1` |
//! | §4.2 linear cost vs diversity | `state_vs_diversity` |
//! | §5 TE interaction (extension) | `te_load_balance`, `te_vs_tuning` |
//! | §5 multipath capacity (extension) | `capacity_multipath` |
//! | §5 interdomain splicing (extension) | `bgp_splicing` |
//! | §5 overlay splicing (extension) | `overlay_splicing` |
//! | §5 slice-construction studies | `slicing_vs_mrc`, `coverage_ablation`, `strategy_sweep` |
//! | §6 convergence studies | `convergence_window`, `routing_dynamics` |
//! | ablations | `loopfree_ablation`, `perturbation_ablation`, `header_encoding_ablation` |
//! | failure-model extensions | `node_failures`, `srlg_failures` |
//! | baselines | `ecmp_baseline`, `explicit_paths_baseline` |
//!
//! Every experiment accepts the shared flags `--trials N`, `--seed N`,
//! `--topology NAME` (built-ins or generator specs like `rand-24-40-7`),
//! `--out DIR` (default `results/`),
//! `--strategy perturbed-spf|tree|lst|arc`, and
//! `--semantics union|directed`.
//! Output goes to stdout as a table and to `DIR/<name>.csv` / `.txt` /
//! `.json` for plotting, next to a schema-stamped `*_manifest.json`.
//! `splice-lab run-all` journals per-experiment JSONL shards under
//! `DIR/shards/` so `splice-lab resume` can skip completed work.

pub mod experiments;

pub use experiments::registry;

use splice_sim::lab::{
    run_all, run_experiment, ArgsError, DeploymentCache, LabArgs, LabError, USAGE_FLAGS,
};
use splice_topology::{Topology, TopologyError};

/// Load a topology by name: the built-ins (`sprint`, `geant`, `abilene`)
/// or any generator spec understood by [`splice_topology::resolve`].
pub fn load_topology(name: &str) -> Result<Topology, TopologyError> {
    splice_topology::resolve(name)
}

/// Print a section header for experiment output.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn print_usage(out: &mut dyn std::io::Write) {
    let _ = writeln!(
        out,
        "splice-lab — one engine behind every Path Splicing experiment\n\
         \n\
         usage:\n\
         \x20 splice-lab list                      list the experiment catalogue\n\
         \x20 splice-lab run <experiment> [flags]  run one experiment\n\
         \x20 splice-lab run-all [flags]           run every experiment, journaling shards\n\
         \x20 splice-lab resume [flags]            like run-all, skipping completed shards\n\
         \x20 splice-lab help                      this message\n\
         \n\
         flags: {USAGE_FLAGS}"
    );
}

/// Parse the shared flags, handling `--help` (usage to stdout, exit 0)
/// and malformed input (message to stderr, exit 2) uniformly.
fn parse_flags(argv: &[String]) -> Result<LabArgs, i32> {
    match LabArgs::parse(argv) {
        Ok(args) => Ok(args),
        Err(ArgsError::Help) => {
            print_usage(&mut std::io::stdout());
            Err(0)
        }
        Err(e) => {
            eprintln!("splice-lab: {e}");
            Err(2)
        }
    }
}

/// The `splice-lab` entry point, factored out of the binary so the exit
/// path stays testable: returns the process exit code instead of calling
/// `std::process::exit` itself.
pub fn lab_main(argv: &[String]) -> i32 {
    let registry = experiments::registry();
    let Some(cmd) = argv.first() else {
        print_usage(&mut std::io::stderr());
        return 2;
    };
    match cmd.as_str() {
        "list" => {
            println!("experiments ({}):", registry.len());
            for exp in registry.iter() {
                let aliases = if exp.aliases().is_empty() {
                    String::new()
                } else {
                    format!(" (alias: {})", exp.aliases().join(", "))
                };
                println!("  {:<26} {}{}", exp.name(), exp.describe(), aliases);
            }
            0
        }
        "run" => {
            let Some(name) = argv.get(1) else {
                eprintln!("usage: splice-lab run <experiment> {USAGE_FLAGS}");
                return 2;
            };
            let Some(exp) = registry.find(name) else {
                eprintln!(
                    "splice-lab: {}",
                    LabError::UnknownExperiment { name: name.clone() }
                );
                return 2;
            };
            let args = match parse_flags(&argv[2..]) {
                Ok(args) => args,
                Err(code) => return code,
            };
            let cache = DeploymentCache::new();
            match run_experiment(exp, &args, &cache) {
                Ok(_) => 0,
                Err(e) => {
                    eprintln!("splice-lab: {e}");
                    1
                }
            }
        }
        "run-all" | "resume" => {
            let resume = cmd == "resume";
            let args = match parse_flags(&argv[1..]) {
                Ok(args) => args,
                Err(code) => return code,
            };
            match run_all(&registry, &args, resume) {
                Ok(_) => 0,
                Err(e) => {
                    eprintln!("splice-lab: {e}");
                    1
                }
            }
        }
        "help" | "--help" | "-h" => {
            print_usage(&mut std::io::stdout());
            0
        }
        other => {
            eprintln!("splice-lab: unknown command {other:?} (try `splice-lab help`)");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_resolve() {
        assert_eq!(load_topology("sprint").unwrap().node_count(), 52);
        assert_eq!(load_topology("geant").unwrap().node_count(), 23);
        assert_eq!(load_topology("abilene").unwrap().node_count(), 11);
        assert_eq!(load_topology("rand-24-40-7").unwrap().node_count(), 24);
    }

    #[test]
    fn unknown_topology_is_a_typed_error() {
        assert!(load_topology("atlantis").is_err());
    }

    #[test]
    fn lab_main_rejects_unknowns_without_exiting() {
        let argv = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(lab_main(&argv(&["frobnicate"])), 2);
        assert_eq!(lab_main(&argv(&["run"])), 2);
        assert_eq!(lab_main(&argv(&["run", "no_such_experiment"])), 2);
        assert_eq!(lab_main(&argv(&["run", "fig3", "--bogus"])), 2);
        assert_eq!(lab_main(&argv(&["help"])), 0);
        assert_eq!(lab_main(&argv(&["list"])), 0);
    }
}
