//! Measured incremental-repair numbers, written to `BENCH_spf_repair.json`.
//!
//! The criterion suite in `benches/spf_repair.rs` gives statistically
//! rigorous timings; this module produces the companion machine-readable
//! summary: for each k, the cost of one full `Splicing::build` (what a
//! non-incremental control plane redoes after every event) against the
//! mean cost of `Splicing::repair` over every single-link failure on the
//! topology, plus the repair frontier and patched-column counts that
//! explain the gap. Plain `Instant` timing keeps the writer
//! dependency-free so it runs even where criterion is absent.

use splice_core::slices::{RepairEvent, Splicing, SplicingConfig};
use splice_sim::lab::LabError;
use splice_telemetry::{Histogram, JsonArray, JsonObject};
use splice_topology::TopologyError;
use std::path::Path;
use std::time::Instant;

use crate::load_topology;

/// Measured numbers for one value of k.
#[derive(Clone, Debug)]
pub struct RepairBenchEntry {
    /// Number of slices.
    pub k: usize,
    /// Wall time of one full `Splicing::build` (k·n Dijkstras).
    pub rebuild_seconds: f64,
    /// Mean wall time of `Splicing::repair` over every single-link
    /// failure event on the topology.
    pub repair_seconds_mean: f64,
    /// Median single-event repair time (log2-bucket interpolated).
    pub repair_seconds_p50: f64,
    /// Tail single-event repair time (p99, log2-bucket interpolated).
    pub repair_seconds_p99: f64,
    /// Worst single-event repair time.
    pub repair_seconds_max: f64,
    /// `rebuild_seconds / repair_seconds_mean` — the incremental win.
    pub speedup_mean: f64,
    /// Number of single-link failure events measured (= edge count).
    pub events: usize,
    /// Mean FIB columns rewritten per event, across all slices.
    pub patched_columns_mean: f64,
    /// Mean dirty-frontier size per event, summed across slices.
    pub frontier_nodes_mean: f64,
    /// Columns a full rebuild would rewrite (k·n), for comparison.
    pub columns_total: usize,
}

/// Measure full rebuilds vs. per-link repairs on `topology` for each k.
pub fn measure(
    topology: &str,
    ks: &[usize],
    seed: u64,
) -> Result<Vec<RepairBenchEntry>, TopologyError> {
    let topo = load_topology(topology)?;
    let g = topo.graph();
    let entries = ks
        .iter()
        .map(|&k| {
            let cfg = SplicingConfig::degree_based(k, 0.0, 3.0);
            let t0 = Instant::now();
            let sp = Splicing::build(&g, &cfg, seed);
            let rebuild_seconds = t0.elapsed().as_secs_f64();

            let mut repair_total = 0.0f64;
            // Per-event durations in nanoseconds; quantiles come out in
            // seconds via the scale, same as the registry histograms.
            let repair_hist = Histogram::with_scale(1e-9);
            let mut patched = 0usize;
            let mut frontier = 0usize;
            let mut events = 0usize;
            for e in g.edge_ids() {
                let event = RepairEvent::LinkFailure(e);
                let t0 = Instant::now();
                let (repaired, stats) = sp
                    .try_repair_batch_recycling(&g, &[event], None, None)
                    .expect("link failures carry no weights to reject");
                let elapsed = t0.elapsed();
                std::hint::black_box(repaired);
                repair_total += elapsed.as_secs_f64();
                repair_hist.record_duration(elapsed);
                patched += stats.patched_columns;
                frontier += stats.frontier_nodes;
                events += 1;
            }
            let repair_seconds_mean = repair_total / events.max(1) as f64;
            let (repair_seconds_p50, _, repair_seconds_p99) = repair_hist.quantiles();

            RepairBenchEntry {
                k,
                rebuild_seconds,
                repair_seconds_mean,
                repair_seconds_p50,
                repair_seconds_p99,
                // The histogram tracks the exact max and clamps its
                // quantiles to it, so sourcing both from the same place
                // keeps p99 <= max an invariant of the report.
                repair_seconds_max: repair_hist.max_scaled(),
                speedup_mean: rebuild_seconds / repair_seconds_mean.max(1e-12),
                events,
                patched_columns_mean: patched as f64 / events.max(1) as f64,
                frontier_nodes_mean: frontier as f64 / events.max(1) as f64,
                columns_total: k * g.node_count(),
            }
        })
        .collect();
    Ok(entries)
}

/// Schema version stamped into every `BENCH_spf_repair.json`. Bump when a
/// field is renamed, removed, or changes meaning; adding fields is
/// compatible. Version 2 added `repair_seconds_p50`/`repair_seconds_p99`
/// (log2-bucket interpolated quantiles) to every entry.
pub const SCHEMA_VERSION: u64 = 2;

/// Render entries as the `BENCH_spf_repair.json` document.
///
/// Stable schema (version [`SCHEMA_VERSION`]):
///
/// ```json
/// {
///   "benchmark": "spf_repair",
///   "schema_version": 2,
///   "topology": "<name>",
///   "seed": <u64>,
///   "entries": [ { one object per k, fields as in RepairBenchEntry } ]
/// }
/// ```
pub fn render(topology: &str, seed: u64, entries: &[RepairBenchEntry]) -> String {
    let mut arr = JsonArray::new();
    for e in entries {
        arr = arr.push_raw(
            &JsonObject::new()
                .field_u64("k", e.k as u64)
                .field_f64("rebuild_seconds", e.rebuild_seconds)
                .field_f64("repair_seconds_mean", e.repair_seconds_mean)
                .field_f64("repair_seconds_p50", e.repair_seconds_p50)
                .field_f64("repair_seconds_p99", e.repair_seconds_p99)
                .field_f64("repair_seconds_max", e.repair_seconds_max)
                .field_f64("speedup_mean", e.speedup_mean)
                .field_u64("events", e.events as u64)
                .field_f64("patched_columns_mean", e.patched_columns_mean)
                .field_f64("frontier_nodes_mean", e.frontier_nodes_mean)
                .field_u64("columns_total", e.columns_total as u64)
                .finish(),
        );
    }
    JsonObject::new()
        .field_str("benchmark", "spf_repair")
        .field_u64("schema_version", SCHEMA_VERSION)
        .field_str("topology", topology)
        .field_u64("seed", seed)
        .field_raw("entries", &arr.finish())
        .finish()
}

/// Measure on `topology` and write `BENCH_spf_repair.json` to `path`.
pub fn write_repair_report(
    path: impl AsRef<Path>,
    topology: &str,
    ks: &[usize],
    seed: u64,
) -> Result<(), LabError> {
    let entries = measure(topology, ks, seed)?;
    let mut text = render(topology, seed, &entries);
    text.push('\n');
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, text)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_entries_are_sane() {
        let entries = measure("abilene", &[1, 2], 7).unwrap();
        assert_eq!(entries.len(), 2);
        for e in &entries {
            assert!(e.rebuild_seconds > 0.0);
            assert!(e.repair_seconds_mean > 0.0);
            assert!(e.repair_seconds_p50 > 0.0);
            // Quantiles are clamped to the tracked max, so the usual
            // order holds exactly: p50 <= p99 <= max.
            assert!(e.repair_seconds_p99 >= e.repair_seconds_p50);
            assert!(e.repair_seconds_p99 <= e.repair_seconds_max);
            assert_eq!(e.events, 14); // Abilene's link count
            assert_eq!(e.columns_total, e.k * 11);
            // Repair never rewrites more columns than a full rebuild.
            assert!(e.patched_columns_mean <= e.columns_total as f64);
            assert!(e.frontier_nodes_mean > 0.0);
        }
    }

    #[test]
    fn report_renders_and_writes() {
        let entries = measure("abilene", &[1], 7).unwrap();
        let json = render("abilene", 7, &entries);
        assert!(json.contains(r#""benchmark":"spf_repair""#));
        assert!(json.contains(r#""schema_version":2"#));
        assert!(json.contains(r#""topology":"abilene""#));
        assert!(json.contains(r#""repair_seconds_mean""#));
        assert!(json.contains(r#""repair_seconds_p50""#));
        assert!(json.contains(r#""repair_seconds_p99""#));
        assert!(json.contains(r#""patched_columns_mean""#));

        let dir = std::env::temp_dir().join("splice-bench-repair-report");
        let path = dir.join("BENCH_spf_repair.json");
        write_repair_report(&path, "abilene", &[1], 7).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains(r#""benchmark":"spf_repair""#));
        assert!(back.ends_with('\n'));
        std::fs::remove_dir_all(&dir).ok();
    }
}
