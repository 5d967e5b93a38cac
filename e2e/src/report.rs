//! Rendering a run: the metric table for people, the one-line JSON the
//! driver reads, and the self-describing record `results.json` keeps.

use crate::json::Json;
use crate::run::RunResult;

/// The driver's contract: one object with exactly `correct`,
/// `attempted`, `failed` and `metrics` (name → value and unit).
pub fn driver_line(r: &RunResult) -> String {
    let metrics = r.metrics.iter().fold(Json::obj(), |obj, m| {
        obj.set(
            m.name,
            Json::obj().set("value", m.value).set("unit", m.unit),
        )
    });
    Json::obj()
        .set("correct", r.correct())
        .set("attempted", r.attempted)
        .set("failed", r.failed)
        .set("metrics", metrics)
        .render()
}

/// Every metric by name with its unit and sample count, the context the
/// run depended on, and anything the correctness gate found.
pub fn human(r: &RunResult) -> String {
    let mut out = format!(
        "== {} seed {} {:.0}s {} ==\n",
        r.config.workload.name,
        r.config.seed,
        r.config.seconds,
        if r.config.traced {
            "per-layer (traced)"
        } else {
            "end-to-end"
        }
    );
    for (k, v) in &r.context {
        out.push_str(&format!("  # {k} = {v}\n"));
    }
    for m in &r.metrics {
        out.push_str(&format!(
            "  {:<34} {:>16.6} {:<7} (n={})\n",
            m.name, m.value, m.unit, m.samples
        ));
    }
    if !r.span_totals.is_empty() {
        out.push_str("  span                        count      total_ms       self_ms\n");
        for (name, t) in &r.span_totals {
            out.push_str(&format!(
                "  {:<24} {:>8} {:>13.3} {:>13.3}\n",
                name,
                t.count,
                t.total_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6
            ));
        }
    }
    out.push_str(&format!(
        "  ops_attempted {} ops_failed {} valid {} correct {}\n",
        r.attempted,
        r.failed,
        r.valid,
        r.correct()
    ));
    for p in &r.problems {
        out.push_str(&format!("  PROBLEM: {p}\n"));
    }
    out
}

/// The run as `results.json` stores it.
pub fn record(r: &RunResult) -> Json {
    let metrics = r.metrics.iter().fold(Json::obj(), |obj, m| {
        obj.set(
            m.name,
            Json::obj()
                .set("value", m.value)
                .set("unit", m.unit)
                .set("samples", m.samples),
        )
    });
    let context = r
        .context
        .iter()
        .fold(Json::obj(), |obj, (k, v)| obj.set(k, v.as_str()));
    Json::obj()
        .set("workload", r.config.workload.name)
        .set("seed", r.config.seed)
        .set("seconds", r.config.seconds)
        .set("trace", r.config.traced)
        .set("quick", r.config.quick)
        .set("correct", r.correct())
        .set("valid", r.valid)
        .set("ops_attempted", r.attempted)
        .set("ops_failed", r.failed)
        .set(
            "problems",
            r.problems
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect::<Vec<_>>(),
        )
        .set("context", context)
        .set("metrics", metrics)
}

/// `results.json`: the machine and toolchain, then every run.
pub fn results_document(git_rev: &str, rustc: &str, runs: Vec<Json>) -> Json {
    Json::obj()
        .set("schema", 1u64)
        .set("git_rev", git_rev)
        .set("rustc", rustc)
        .set(
            "available_parallelism",
            crate::pipeline::available_parallelism(),
        )
        .set("workers", crate::pipeline::worker_count())
        .set("runs", runs)
}
