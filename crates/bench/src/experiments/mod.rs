//! The experiment catalogue: every driver that used to be its own
//! `cargo run --bin` binary, ported onto the [`splice_sim::lab`] engine.
//!
//! Each submodule holds one [`Experiment`] implementation; [`registry`]
//! assembles them in the canonical `run-all` order. The order matters
//! operationally: experiments that share a spliced deployment
//! (same `(topology, k, perturbation, seed)` key) run close together so
//! the [`splice_sim::lab::DeploymentCache`] turns repeat builds into hits.

use splice_sim::lab::ExperimentRegistry;

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
pub mod te_vs_tuning;
pub mod theorem_b1;

/// Build the full experiment registry in canonical `run-all` order:
/// paper figures and tables first, then extensions, ablations, and
/// baselines.
pub fn registry() -> ExperimentRegistry {
    let mut reg = ExperimentRegistry::new();
    reg.register(Box::new(fig3_reliability::Fig3Reliability));
    reg.register(Box::new(fig4_end_system_recovery::Fig4EndSystemRecovery));
    reg.register(Box::new(fig5_network_recovery::Fig5NetworkRecovery));
    reg.register(Box::new(table1::Table1Summary));
    reg.register(Box::new(stretch_stats::StretchStats));
    reg.register(Box::new(loop_stats::LoopStats));
    reg.register(Box::new(scaling_lognslices::ScalingLogNSlices));
    reg.register(Box::new(theorem_b1::TheoremB1));
    reg.register(Box::new(state_vs_diversity::StateVsDiversity));
    reg.register(Box::new(strategy_sweep::StrategySweep));
    reg.register(Box::new(te_load_balance::TeLoadBalance));
    reg.register(Box::new(te_vs_tuning::TeVsTuning));
    reg.register(Box::new(capacity_multipath::CapacityMultipath));
    reg.register(Box::new(bgp_splicing::BgpSplicing));
    reg.register(Box::new(overlay_splicing::SplicedOverlay));
    reg.register(Box::new(slicing_vs_mrc::SlicingVsMrc));
    reg.register(Box::new(coverage_ablation::CoverageAblation));
    reg.register(Box::new(loopfree_ablation::LoopfreeAblation));
    reg.register(Box::new(perturbation_ablation::PerturbationAblation));
    reg.register(Box::new(header_encoding_ablation::HeaderEncodingAblation));
    reg.register(Box::new(node_failures::NodeFailures));
    reg.register(Box::new(srlg_failures::SrlgFailures));
    reg.register(Box::new(convergence_window::ConvergenceWindow));
    reg.register(Box::new(routing_dynamics::RoutingDynamics));
    reg.register(Box::new(ecmp_baseline::EcmpBaseline));
    reg.register(Box::new(explicit_paths_baseline::ExplicitPathsBaseline));
    reg
}

#[cfg(test)]
mod tests {
    use super::registry;

    #[test]
    fn registry_holds_all_experiments_with_unique_names() {
        let reg = registry();
        assert_eq!(reg.len(), 26);
        // Uniqueness is enforced by `register` (it panics on duplicates);
        // here we spot-check lookups by both canonical name and alias.
        assert!(reg.find("fig3_reliability").is_some());
        assert!(reg.find("fig3").is_some());
        assert!(reg.find("fig4").is_some());
        assert!(reg.find("fig5").is_some());
        assert!(reg.find("explicit_paths_baseline").is_some());
        assert!(reg.find("strategy_sweep").is_some());
        assert!(reg.find("strategies").is_some());
        assert!(reg.find("nope").is_none());
    }
}
