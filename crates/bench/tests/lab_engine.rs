//! Engine-level acceptance tests: the `splice-lab` engine must produce
//! byte-identical artifacts to the underlying simulation APIs, stamp
//! every manifest with the schema version, and make `run-all` sweeps
//! resumable with each spliced deployment built exactly once.

use splice_bench::registry;
use splice_sim::lab::{run_all, run_experiment, DeploymentCache, LabArgs};
use splice_sim::output::series_to_csv;
use splice_sim::reliability::{reliability_experiment, ReliabilityConfig};
use std::path::{Path, PathBuf};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn lab_args(trials: usize, seed: u64, out: &Path) -> LabArgs {
    LabArgs {
        trials: Some(trials),
        seed,
        topology: "abilene".into(),
        out: out.to_path_buf(),
        semantics: "union".into(),
        strategy: splice_core::strategy::StrategyKind::PerturbedSpf,
        listen: None,
        linger_secs: 0,
    }
}

/// The CI reproducibility gate: fig3 through the engine is bit-identical
/// to calling the reliability API directly with the same seed.
#[test]
fn fig3_engine_csv_matches_direct_api_byte_for_byte() {
    let dir = fresh_dir("splice-lab-fig3-identity");
    let reg = registry();
    let exp = reg.find("fig3").expect("fig3 alias registered");
    run_experiment(exp, &lab_args(3, 11, &dir), &DeploymentCache::new()).unwrap();
    let engine_csv = std::fs::read_to_string(dir.join("fig3_reliability_abilene_union.csv"))
        .expect("engine wrote the fig3 CSV");

    let topo = splice_topology::resolve("abilene").unwrap();
    let out = reliability_experiment(&topo.graph(), &ReliabilityConfig::figure3(3, 11));
    let mut series = out.curves.clone();
    series.push(out.best_possible.clone());
    let direct_csv = series_to_csv(&series).unwrap();

    assert_eq!(engine_csv, direct_csv);
    std::fs::remove_dir_all(&dir).ok();
}

/// One sweep over the whole catalogue: every experiment lands a
/// schema-stamped manifest, the shared deployment cache builds each
/// `(k, perturbation, seed)` deployment exactly once, and `resume`
/// skips everything the first pass completed.
#[test]
fn run_all_stamps_manifests_shares_deployments_and_resumes() {
    let dir = fresh_dir("splice-lab-run-all");
    let reg = registry();
    let args = lab_args(1, 20080817, &dir);

    let first = run_all(&reg, &args, false).unwrap();
    assert_eq!(first.ran.len(), reg.len());
    assert!(first.skipped.is_empty());
    // Cache-sharing acceptance: strategy_sweep cold-builds its four k=5
    // deployments (one per strategy), te_vs_tuning adds k=1 and
    // capacity_multipath k=10; te_load_balance's k=5 (same key as the
    // sweep's perturbed-spf build), te_vs_tuning's k=5, ecmp_baseline's
    // and srlg_failures' k=10 reuse them. Per-trial builders bypass the
    // cache by design.
    assert_eq!(first.cache.misses, 6);
    assert_eq!(first.cache.hits, 4);

    let manifests: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with("_manifest.json"))
        })
        .collect();
    assert_eq!(manifests.len(), reg.len());
    for path in &manifests {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(
            text.contains(r#""schema_version":1"#),
            "{} lacks the schema stamp",
            path.display()
        );
        assert!(text.contains(r#""deployment_cache""#));
    }

    let second = run_all(&reg, &args, true).unwrap();
    assert!(second.ran.is_empty());
    assert_eq!(second.skipped.len(), reg.len());

    // A different seed invalidates every shard header: nothing skips.
    let reseeded = lab_args(1, 7, &dir);
    let third = run_all(&reg, &reseeded, true).unwrap();
    assert_eq!(third.ran.len(), reg.len());
    std::fs::remove_dir_all(&dir).ok();
}
