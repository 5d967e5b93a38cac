//! `splice-e2e run` / `splice-e2e compare`; see `README.md`.

use splice_e2e::compare::{bounds, compare, render, Verdict};
use splice_e2e::json::Json;
use splice_e2e::report::{driver_line, human, record, results_document};
use splice_e2e::run::{run_workload, RunConfig};
use splice_e2e::workload::{find, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const HELP: &str = "\
splice-e2e — end-to-end benchmark: link event in, first packet on the repaired FIB out

usage:
  splice-e2e run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1 | --traced]
                 [--out DIR] [--repeat R] [--seed-step S] [--quick]
      With --workload: run it once in this process; the last line of standard
      output is one JSON object {correct, attempted, failed, metrics}. --trace 0
      gives the end-to-end metrics, --trace 1 the per-layer metrics.
      Without: run every workload, each in a fresh child process, untraced then
      traced (or only the mode --trace names), --repeat times, adding
      --seed-step to the seed each time; print every metric and write
      DIR/results.json (default DIR: e2e/out) and DIR/trace-<workload>.jsonl.
      Workloads: paced-churn flood-churn forward-heavy scale-tree.
      --quick swaps in Abilene and three set-ups (smoke runs, not measurements).
  splice-e2e compare A.json B.json [--benchmark BENCHMARK.json]
      Per (metric, workload): B's median against A's and the bound in
      BENCHMARK.json; exit 1 on a regression.

exit codes: 0 ok, 1 correctness failure or regression, 2 usage error.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("help" | "--help" | "-h") => {
            print!("{HELP}");
            Ok(true)
        }
        _ => Err(format!("expected `run` or `compare`\n\n{HELP}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("splice-e2e: {msg}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: Option<bool>,
    out: Option<PathBuf>,
    repeat: usize,
    seed_step: u64,
    quick: bool,
    inject_fault: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 42,
        seconds: 20.0,
        traced: None,
        out: None,
        repeat: 1,
        seed_step: 0,
        quick: false,
        inject_fault: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
        }
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => parsed.seed = num(flag, value()?)?,
            "--seconds" => parsed.seconds = num(flag, value()?)?,
            "--trace" => {
                parsed.traced = match value()? {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => parsed.traced = Some(true),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--repeat" => parsed.repeat = num::<usize>(flag, value()?)?.max(1),
            "--seed-step" => parsed.seed_step = num(flag, value()?)?,
            "--quick" => parsed.quick = true,
            // Test only: the oracle is built from the schedule with one
            // event dropped, so the run must fail with a divergence.
            "--inject-fault" => parsed.inject_fault = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<bool, String> {
    let a = parse_run(args)?;
    match &a.workload {
        Some(name) => run_one(&a, name),
        None => run_all(&a),
    }
}

/// One workload in this process.
fn run_one(a: &RunArgs, name: &str) -> Result<bool, String> {
    let traced = a.traced.unwrap_or(false);
    let workload = find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; expected one of {}",
            names.join(", ")
        )
    })?;
    let result = run_workload(&RunConfig {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        traced,
        quick: a.quick,
        inject_fault: a.inject_fault,
    })?;
    print!("{}", human(&result));
    if let Some(dir) = &a.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let kind = if traced { "layers" } else { "e2e" };
        write(
            &dir.join(format!("run-{name}-{kind}.json")),
            &(record(&result).render() + "\n"),
        )?;
        if traced {
            let mut lines = result.trace_lines.join("\n");
            lines.push('\n');
            write(&dir.join(format!("trace-{name}.jsonl")), &lines)?;
        }
    }
    println!("{}", driver_line(&result));
    Ok(result.correct())
}

/// Every workload, each run in a fresh child process (so `peak_rss_mb`
/// is that workload's alone), untraced then traced.
fn run_all(a: &RunArgs) -> Result<bool, String> {
    let out = a
        .out
        .clone()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    let mut checksums: std::collections::BTreeMap<&str, String> = Default::default();
    for rep in 0..a.repeat as u64 {
        let seed = a.seed + rep * a.seed_step;
        for w in &WORKLOADS {
            for (traced, kind) in [(false, "e2e"), (true, "layers")] {
                if a.traced.is_some_and(|only| only != traced) {
                    continue;
                }
                let mut cmd = Command::new(&exe);
                cmd.arg("run")
                    .args(["--workload", w.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &a.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&out);
                if a.quick {
                    cmd.arg("--quick");
                }
                let status = cmd
                    .status()
                    .map_err(|e| format!("starting {}: {e}", exe.display()))?;
                all_correct &= status.success();
                let path = out.join(format!("run-{}-{kind}.json", w.name));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                let run = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                let _ = std::fs::remove_file(&path);
                if !traced {
                    if let Some(sum) = run
                        .get("context")
                        .and_then(|c| c.get("fib_checksum"))
                        .and_then(Json::as_str)
                    {
                        checksums.insert(w.name, sum.to_string());
                    }
                }
                runs.push(run);
            }
        }
    }
    // Same deployment, same schedule: paced-churn and flood-churn must
    // end on the same FIB however the events were batched.
    let (paced, flood) = (checksums.get("paced-churn"), checksums.get("flood-churn"));
    if paced != flood {
        eprintln!(
            "splice-e2e: paced-churn ended on fib_checksum {paced:?}, flood-churn on {flood:?}"
        );
        all_correct = false;
    }
    let doc = results_document(
        &tool_line("git", &["rev-parse", "HEAD"]),
        &tool_line("rustc", &["-V"]),
        runs,
    );
    let path = out.join("results.json");
    write(&path, &(doc.render() + "\n"))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// First line a tool prints, or "unknown" (a source archive has no git).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = PathBuf::from(it.next().ok_or("--benchmark needs a path")?);
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files[..] else {
        return Err("compare takes two results.json files".to_string());
    };
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let bounds = bounds(&load(&benchmark)?)?;
    let rows = compare(&load(Path::new(a))?, &load(Path::new(b))?, &bounds);
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) cell".to_string());
    }
    print!("{}", render(&rows));
    let regressions = rows
        .iter()
        .filter(|c| c.verdict == Verdict::Regression)
        .count();
    let unresolved = rows
        .iter()
        .filter(|c| c.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} cell(s): {regressions} regression(s), {unresolved} unresolved",
        rows.len()
    );
    Ok(regressions == 0)
}
