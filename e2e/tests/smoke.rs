//! End-to-end smoke of the harness itself: every workload, both modes, on
//! Abilene for about a second each. Numbers from these runs mean
//! nothing; what is checked is that every metric `BENCHMARK.json` names
//! is reported, that nothing fails, and that a wrong oracle is caught.

use splice_e2e::json::Json;
use splice_e2e::report::driver_line;
use splice_e2e::run::{run_workload, RunConfig};
use splice_e2e::workload::{find, WORKLOADS};
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.items()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn quick(name: &str, traced: bool) -> RunConfig {
    RunConfig {
        workload: find(name).unwrap(),
        seed: 7,
        seconds: 1.0,
        traced,
        quick: true,
        inject_fault: false,
    }
}

/// One test, run sequentially: the runs are timing-sensitive enough that
/// they should not share the machine with each other.
#[test]
fn every_workload_reports_every_metric_and_fails_nothing() {
    let benchmark = benchmark_json();
    let declared: Vec<String> = benchmark
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(
        declared,
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>(),
        "BENCHMARK.json and the code list the same workloads"
    );

    let mut checksums = Vec::new();
    for w in &WORKLOADS {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run_workload(&quick(w.name, traced)).unwrap();
            assert!(
                result.correct(),
                "{} traced={traced}: failed {} problems {:?}",
                w.name,
                result.failed,
                result.problems
            );
            assert_eq!(result.failed, 0);
            assert!(result.attempted > 64);

            // Exactly the declared metrics, with the declared units, in
            // the driver's line.
            let line = Json::parse(&driver_line(&result)).unwrap();
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let reported = line.get("metrics").unwrap();
            let want = names(benchmark.get(key).unwrap());
            assert_eq!(reported.fields().len(), want.len(), "{} {key}", w.name);
            for (name, unit) in &want {
                let m = reported
                    .get(name)
                    .unwrap_or_else(|| panic!("{} does not report {name}", w.name));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            }
            if !traced {
                for (name, _) in &want {
                    let v = reported
                        .get(name)
                        .unwrap()
                        .get("value")
                        .unwrap()
                        .as_f64()
                        .unwrap();
                    assert!(v > 0.0, "{}: end-to-end metric {name} is {v}", w.name);
                }
                checksums.push((w.name, result.fib_checksum));
            }
        }
    }
    // Same deployment, same schedule, different batching: same final FIB.
    let sum = |name: &str| checksums.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!(sum("paced-churn"), sum("flood-churn"));
}

/// An oracle built from the schedule with one event dropped must turn the
/// run into a failure that names a divergence — in the library and, as
/// exit code 1 with no `"correct":true`, from the command line.
#[test]
fn a_wrong_oracle_is_a_divergence_and_exit_code_1() {
    let mut cfg = quick("paced-churn", false);
    cfg.inject_fault = true;
    let result = run_workload(&cfg).unwrap();
    assert!(!result.correct());
    assert!(
        result.problems.iter().any(|p| p.contains("divergence")),
        "{:?}",
        result.problems
    );

    let out = Command::new(env!("CARGO_BIN_EXE_splice-e2e"))
        .args([
            "run",
            "--workload",
            "flood-churn",
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", "1", "--quick", "--inject-fault"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("PROBLEM: divergence"), "{stdout}");
    assert!(stdout
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\":false"));

    // Usage errors are exit code 2 and print no result.
    let bad = Command::new(env!("CARGO_BIN_EXE_splice-e2e"))
        .args(["run", "--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}
