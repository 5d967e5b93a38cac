//! The experiment catalogue: every driver that used to be its own
//! `cargo run --bin` binary, ported onto the [`splice_sim::lab`] engine.
//!
//! Each submodule exports one `EXPERIMENT` (an [`Experiment`] record:
//! name, aliases, description, default trial count and a private `run`
//! function); [`CATALOGUE`] lists them in the canonical `run-all` order.
//! The order matters operationally: experiments that share a spliced
//! deployment (same `(topology, k, perturbation, seed)` key) run close
//! together so the [`splice_sim::lab::DeploymentCache`] turns repeat
//! builds into hits.

use splice_sim::lab::Experiment;

pub mod bgp_splicing;
pub mod capacity_multipath;
pub mod convergence_window;
pub mod coverage_ablation;
pub mod ecmp_baseline;
pub mod explicit_paths_baseline;
pub mod fig3_reliability;
pub mod fig4_end_system_recovery;
pub mod fig5_network_recovery;
pub mod header_encoding_ablation;
pub mod loop_stats;
pub mod loopfree_ablation;
pub mod node_failures;
pub mod overlay_splicing;
pub mod perturbation_ablation;
pub mod routing_dynamics;
pub mod scaling_lognslices;
pub mod slicing_vs_mrc;
pub mod srlg_failures;
pub mod state_vs_diversity;
pub mod strategy_sweep;
pub mod stretch_stats;
pub mod table1;
pub mod te_load_balance;
pub mod theorem_b1;

/// Every experiment in canonical `run-all` order: paper figures and
/// tables first, then extensions, ablations, and baselines.
pub const CATALOGUE: &[Experiment] = &[
    fig3_reliability::EXPERIMENT,
    fig4_end_system_recovery::EXPERIMENT,
    fig5_network_recovery::EXPERIMENT,
    table1::EXPERIMENT,
    stretch_stats::EXPERIMENT,
    loop_stats::EXPERIMENT,
    scaling_lognslices::EXPERIMENT,
    theorem_b1::EXPERIMENT,
    state_vs_diversity::EXPERIMENT,
    strategy_sweep::EXPERIMENT,
    te_load_balance::EXPERIMENT,
    capacity_multipath::EXPERIMENT,
    bgp_splicing::EXPERIMENT,
    overlay_splicing::EXPERIMENT,
    slicing_vs_mrc::EXPERIMENT,
    coverage_ablation::EXPERIMENT,
    loopfree_ablation::EXPERIMENT,
    perturbation_ablation::EXPERIMENT,
    header_encoding_ablation::EXPERIMENT,
    node_failures::EXPERIMENT,
    srlg_failures::EXPERIMENT,
    convergence_window::EXPERIMENT,
    routing_dynamics::EXPERIMENT,
    ecmp_baseline::EXPERIMENT,
    explicit_paths_baseline::EXPERIMENT,
];

#[cfg(test)]
mod tests {
    use super::CATALOGUE;
    use splice_sim::lab::find;

    #[test]
    fn catalogue_names_and_aliases_are_unique_and_resolve() {
        assert_eq!(CATALOGUE.len(), 25);
        let keys: Vec<&str> = CATALOGUE
            .iter()
            .flat_map(|e| std::iter::once(e.name).chain(e.aliases.iter().copied()))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            assert!(!keys[..i].contains(key), "{key:?} appears twice");
        }
        for exp in CATALOGUE {
            for key in std::iter::once(exp.name).chain(exp.aliases.iter().copied()) {
                let found = find(CATALOGUE, key).expect("every key resolves");
                assert_eq!(found.name, exp.name, "{key:?} resolves to another entry");
            }
        }
        assert!(find(CATALOGUE, "nope").is_none());
    }
}
