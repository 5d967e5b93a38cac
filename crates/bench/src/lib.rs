//! # splice-bench
//!
//! The regenerator of the paper's figures and tables: `splice exp`
//! drives every one of them (plus the extensions, ablations, and
//! baselines) through one [`splice_sim::lab`] engine, from one static
//! table, [`CATALOGUE`]. Throughput and latency of the shipped pipeline
//! are measured by the end-to-end benchmark in `e2e/` (`BENCHMARK.json`),
//! not here.
//!
//! | Paper artifact | `splice exp run …` |
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
//! | §5 TE interaction (extension) | `te_load_balance` |
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
//! `splice exp run-all` journals per-experiment JSONL shards under
//! `DIR/shards/` so `splice exp resume` can skip completed work.

pub mod experiments;

pub use experiments::CATALOGUE;

/// Print a section header for experiment output.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}
