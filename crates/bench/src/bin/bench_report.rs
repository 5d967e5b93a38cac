//! Standalone writer for the machine-readable bench summaries.
//!
//! `BENCH_fib.json` and `BENCH_spf_repair.json` used to exist only as a
//! side effect of running the criterion suites; this binary produces both
//! on demand — plus the per-strategy `BENCH_strategy.json` summary, the
//! batched-repair `BENCH_churn.json` sweep, and the batched-forwarding
//! `BENCH_forward.json` engine comparison — by default into the
//! repository root, where CI and the §4.2 state-size discussion pick
//! them up — without pulling in criterion at all. The documents carry a
//! `schema_version` field (see
//! [`splice_bench::fib_report::SCHEMA_VERSION`],
//! [`splice_bench::repair_report::SCHEMA_VERSION`],
//! [`splice_bench::strategy_report::SCHEMA_VERSION`],
//! [`splice_bench::churn_report::SCHEMA_VERSION`] and
//! [`splice_bench::forward_report::SCHEMA_VERSION`]); consumers should
//! check it before parsing. Before writing, the repair and churn
//! summaries are sanity-checked: every quantile must sit at or below its
//! tracked max, so a committed BENCH file can never report p99 > max.
//! The forwarding summary carries its own built-in gates: the three
//! engines' merged outcome checksums must match, and its differential
//! oracle must report zero divergences, or the measurement aborts.
//!
//! ```text
//! cargo run -p splice-bench --bin bench_report -- [--topology NAME] [--seed N] [--out DIR]
//! ```

use std::path::PathBuf;

/// k values matched to the criterion suites so the JSON summaries and the
/// rigorous timings describe the same sweep.
const FIB_KS: &[usize] = &[1, 2, 5, 10];
const REPAIR_KS: &[usize] = &[1, 5, 10];

/// Slice count and Monte-Carlo depth for the per-strategy summary —
/// k = 5 is the paper's headline operating point.
const STRATEGY_K: usize = 5;
const STRATEGY_TRIALS: usize = 100;

/// Churn sweep: the paper's k = 5 operating point, a schedule long
/// enough for steady-state throughput, and the batch sizes CI compares.
const CHURN_K: usize = 5;
const CHURN_SCHEDULE_LEN: usize = 400;
const CHURN_BATCH_SIZES: &[usize] = &[1, 2, 4, 8, 16];

fn main() {
    let mut topology = String::from("sprint");
    let mut seed = 42u64;
    let mut out = PathBuf::from(".");

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need_value = |i: usize| {
            argv.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value for {}", argv[i]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--topology" => {
                topology = need_value(i).clone();
                i += 2;
            }
            "--seed" => {
                seed = need_value(i).parse().unwrap_or_else(|e| {
                    eprintln!("bad --seed: {e}");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--out" => {
                out = PathBuf::from(need_value(i));
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!("usage: bench_report [--topology NAME] [--seed N] [--out DIR]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let fib_path = out.join("BENCH_fib.json");
    if let Err(e) = splice_bench::fib_report::write_fib_report(&fib_path, &topology, FIB_KS, seed) {
        eprintln!("writing {}: {e}", fib_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", fib_path.display());

    let repair_path = out.join("BENCH_spf_repair.json");
    let repair_entries = splice_bench::repair_report::measure(&topology, REPAIR_KS, seed)
        .unwrap_or_else(|e| {
            eprintln!("measuring spf repair: {e}");
            std::process::exit(1);
        });
    for e in &repair_entries {
        // A committed summary must never claim a tail above its own max.
        assert!(
            e.repair_seconds_p50 <= e.repair_seconds_p99
                && e.repair_seconds_p99 <= e.repair_seconds_max,
            "repair quantiles out of order at k={}: p50={} p99={} max={}",
            e.k,
            e.repair_seconds_p50,
            e.repair_seconds_p99,
            e.repair_seconds_max
        );
    }
    let mut repair_json = splice_bench::repair_report::render(&topology, seed, &repair_entries);
    repair_json.push('\n');
    if let Err(e) = std::fs::write(&repair_path, repair_json) {
        eprintln!("writing {}: {e}", repair_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", repair_path.display());

    let churn_path = out.join("BENCH_churn.json");
    let churn_entries = splice_bench::churn_report::measure(
        &topology,
        CHURN_K,
        CHURN_SCHEDULE_LEN,
        CHURN_BATCH_SIZES,
        seed,
    )
    .unwrap_or_else(|e| {
        eprintln!("measuring churn: {e}");
        std::process::exit(1);
    });
    for e in &churn_entries {
        assert!(
            e.repair_seconds_p50 <= e.repair_seconds_p99
                && e.repair_seconds_p99 <= e.repair_seconds_max,
            "churn quantiles out of order at batch={}: p50={} p99={} max={}",
            e.batch_size,
            e.repair_seconds_p50,
            e.repair_seconds_p99,
            e.repair_seconds_max
        );
    }
    let mut churn_json = splice_bench::churn_report::render(
        &topology,
        CHURN_K,
        CHURN_SCHEDULE_LEN,
        seed,
        &churn_entries,
    );
    churn_json.push('\n');
    if let Err(e) = std::fs::write(&churn_path, churn_json) {
        eprintln!("writing {}: {e}", churn_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", churn_path.display());

    let forward_path = out.join("BENCH_forward.json");
    let forward_cfg =
        splice_bench::forward_report::ForwardBenchConfig::default_for(&topology, seed);
    if let Err(e) = splice_bench::forward_report::write_forward_report(&forward_path, &forward_cfg)
    {
        eprintln!("writing {}: {e}", forward_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", forward_path.display());

    let strategy_path = out.join("BENCH_strategy.json");
    if let Err(e) = splice_bench::strategy_report::write_strategy_report(
        &strategy_path,
        &topology,
        STRATEGY_K,
        STRATEGY_TRIALS,
        seed,
    ) {
        eprintln!("writing {}: {e}", strategy_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", strategy_path.display());
}
