//! `splice-e2e compare A.json B.json`: is B worse than A anywhere?
//!
//! Each file is a `results.json` holding one or more end-to-end runs per
//! workload. Per (metric, workload) cell the medians are compared against
//! the bound `BENCHMARK.json` fixes for that metric. A cell whose
//! run-to-run spread (inter-quartile distance over the median, on either
//! side) exceeds the bound cannot be called either way and is reported
//! `unresolved` — unless every run of B beats every run of A.

use crate::json::Json;
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;

/// An end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// The end-to-end metrics `BENCHMARK.json` declares.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.items()
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("end_to_end entry without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

/// What a cell's comparison came to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, spread within the bound.
    Ok,
    /// Every run of B is better than every run of A.
    Better,
    /// Spread exceeds the bound: neither "unchanged" nor "worse" holds.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Regression,
}

/// One (metric, workload) row.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median over A's runs.
    pub a: f64,
    /// Median over B's runs.
    pub b: f64,
    /// How much worse B is, as a share of A (negative = better).
    pub worse_by: f64,
    /// The larger of the two sides' spreads.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// End-to-end values per (workload, metric) in a `results.json`.
fn cells_of(results: &Json) -> BTreeMap<(String, String), Vec<f64>> {
    let mut cells: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in results.get("runs").map_or(&[][..], Json::items) {
        if run.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        for (name, m) in run.get("metrics").map_or(&[][..], Json::fields) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                cells
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    cells
}

/// Compare two result sets cell by cell.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Vec<Cell> {
    let (a, b) = (cells_of(a), cells_of(b));
    let mut rows = Vec::new();
    for ((workload, metric), av) in &a {
        let (Some(bv), Some(bound)) = (
            b.get(&(workload.clone(), metric.clone())),
            bounds.iter().find(|bd| &bd.name == metric),
        ) else {
            continue;
        };
        let (ma, mb) = (median(av).unwrap_or(0.0), median(bv).unwrap_or(0.0));
        let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
        let worse_by = if ma != 0.0 {
            sign * (mb - ma) / ma.abs()
        } else {
            0.0
        };
        let spread = iqr_share(av).max(iqr_share(bv));
        let all_better = av.iter().all(|x| bv.iter().all(|y| sign * (y - x) < 0.0));
        let verdict = if all_better {
            Verdict::Better
        } else if spread > bound.bound {
            Verdict::Unresolved
        } else if worse_by > bound.bound {
            Verdict::Regression
        } else {
            Verdict::Ok
        };
        rows.push(Cell {
            workload: workload.clone(),
            metric: metric.clone(),
            a: ma,
            b: mb,
            worse_by,
            spread,
            bound: bound.bound,
            verdict,
        });
    }
    rows
}

/// The table `compare` prints.
pub fn render(rows: &[Cell]) -> String {
    let mut out = format!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for c in rows {
        out.push_str(&format!(
            "{:<14} {:<16} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>5.0}%  {}\n",
            c.workload,
            c.metric,
            c.a,
            c.b,
            c.worse_by * 100.0,
            c.spread * 100.0,
            c.bound * 100.0,
            match c.verdict {
                Verdict::Ok => "ok",
                Verdict::Better => "better",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => "REGRESSION",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(values: &[(&str, &str, &[f64])]) -> Json {
        let mut runs = Vec::new();
        for (workload, metric, vs) in values {
            for v in *vs {
                runs.push(
                    Json::obj()
                        .set("workload", *workload)
                        .set("trace", false)
                        .set(
                            "metrics",
                            Json::obj().set(metric, Json::obj().set("value", *v)),
                        ),
                );
            }
        }
        Json::obj().set("runs", runs)
    }

    fn bound(name: &str, lower: bool) -> Bound {
        Bound {
            name: name.to_string(),
            lower_is_better: lower,
            bound: 0.1,
        }
    }

    #[test]
    fn verdicts() {
        let bounds = [bound("lat", true), bound("rate", false)];
        let a = results(&[
            ("w", "lat", &[10.0, 10.1, 9.9, 10.0]),
            ("w", "rate", &[100.0, 101.0, 99.0, 100.0]),
            ("noisy", "lat", &[10.0, 20.0, 5.0, 12.0]),
            ("win", "lat", &[10.0, 10.2, 9.8, 10.0]),
        ]);
        let b = results(&[
            ("w", "lat", &[12.0, 12.1, 11.9, 12.0]),
            ("w", "rate", &[95.0, 96.0, 94.0, 97.0]),
            ("noisy", "lat", &[11.0, 21.0, 6.0, 13.0]),
            ("win", "lat", &[9.0, 9.1, 8.9, 9.0]),
        ]);
        let rows = compare(&a, &b, &bounds);
        let verdict = |w: &str, m: &str| {
            rows.iter()
                .find(|c| c.workload == w && c.metric == m)
                .unwrap()
                .verdict
        };
        assert_eq!(
            verdict("w", "lat"),
            Verdict::Regression,
            "20% slower, bound 10%"
        );
        assert_eq!(
            verdict("w", "rate"),
            Verdict::Ok,
            "4.5% lower throughput, bound 10%"
        );
        assert_eq!(verdict("noisy", "lat"), Verdict::Unresolved);
        assert_eq!(verdict("win", "lat"), Verdict::Better);
        let lat = rows
            .iter()
            .find(|c| c.workload == "w" && c.metric == "lat")
            .unwrap();
        assert!((lat.worse_by - 0.2).abs() < 1e-9);
        assert!(render(&rows).contains("REGRESSION"));
    }

    #[test]
    fn reads_bounds_from_the_benchmark_file_shape() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"x","unit":"ms","better":"lower","bound":0.1},
                              {"name":"y","unit":"1/s","better":"higher","bound":0.05}]}"#,
        )
        .unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b[0].lower_is_better && !b[1].lower_is_better);
        assert_eq!(b[1].bound, 0.05);
        assert!(bounds(&Json::obj()).is_err());
    }
}
