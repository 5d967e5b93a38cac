//! Sustained-churn repair throughput, written to `BENCH_churn.json`.
//!
//! The spf-repair report times isolated single-link events from a clean
//! deployment. This module answers the operational question instead: when
//! failures, reweights, and recoveries arrive as a continuous stream, how
//! many updates per second does the repair engine absorb, and what does
//! batching buy? It replays one deterministic
//! [`churn_schedule`](splice_testkit::churn_schedule) through
//! [`Splicing::repair_batch`] at several batch sizes and reports sustained
//! throughput, per-batch latency quantiles, and a FIB checksum. Because
//! `repair_batch` is bit-identical to folding its events one at a time,
//! every batch size must land on the same checksum — the report asserts
//! it, so a batching bug cannot ship inside a performance number.

use splice_core::slices::{Splicing, SplicingConfig};
use splice_sim::lab::LabError;
use splice_telemetry::{Histogram, JsonArray, JsonObject};
use splice_testkit::{churn_schedule, schedule_to_batches};
use splice_topology::TopologyError;
use std::path::Path;
use std::time::Instant;

use crate::load_topology;

/// Measured numbers for one batch size.
#[derive(Clone, Debug)]
pub struct ChurnBenchEntry {
    /// Maximum repair events coalesced into one `repair_batch` call.
    pub batch_size: usize,
    /// Timed `repair_batch` calls: every step of the schedule.
    pub batches: usize,
    /// Repair events applied across the batches (recoveries included).
    pub events_applied: usize,
    /// `events_applied` / total repair wall time — the headline number.
    pub updates_per_sec: f64,
    /// Median per-batch repair time (log2-bucket interpolated).
    pub repair_seconds_p50: f64,
    /// Tail per-batch repair time (p99, clamped to the tracked max).
    pub repair_seconds_p99: f64,
    /// Worst per-batch repair time.
    pub repair_seconds_max: f64,
    /// FIB columns rewritten across the timed batches.
    pub patched_columns: usize,
    /// `patched_columns` / total repair wall time.
    pub patched_columns_per_sec: f64,
    /// FNV-1a digest of the final deployment (next hops + failed edges).
    /// Identical across batch sizes, or the batching is broken.
    pub fib_checksum: u64,
    /// `updates_per_sec` relative to the batch-size-1 entry (1.0 if the
    /// sweep does not include batch size 1).
    pub speedup_vs_batch1: f64,
}

/// FNV-1a digest over the deployment's forwarding state: every
/// `(slice, node, dst)` next hop plus the failed-edge set. Two
/// deployments with equal checksums forward identically.
///
/// This is the canonical [`splice_core::control::fib_checksum`] — the
/// same digest the live daemon's exit oracle and the testkit's
/// daemon-replay differential use — re-exported so existing
/// `BENCH_churn.json` consumers keep their import path.
pub use splice_core::control::fib_checksum;

/// Replay `schedule_len` churn events on `topology` with `k` slices at
/// each batch size, timing every `repair_batch` call.
pub fn measure(
    topology: &str,
    k: usize,
    schedule_len: usize,
    batch_sizes: &[usize],
    seed: u64,
) -> Result<Vec<ChurnBenchEntry>, TopologyError> {
    let topo = load_topology(topology)?;
    let g = topo.graph();
    let base = Splicing::build(&g, &SplicingConfig::degree_based(k, 0.0, 3.0), seed);
    let base_weights: Vec<Vec<f64>> = (0..k).map(|s| base.weights(s).to_vec()).collect();
    let schedule = churn_schedule(&g, k, schedule_len, seed);

    let mut entries: Vec<ChurnBenchEntry> = batch_sizes
        .iter()
        .map(|&batch_size| {
            let steps = schedule_to_batches(&base_weights, &schedule, batch_size);
            let hist = Histogram::with_scale(1e-9);
            let mut repair_total = 0.0f64;
            let mut batches = 0usize;
            let mut events_applied = 0usize;
            let mut patched = 0usize;
            let mut sp = base.clone();
            for events in &steps {
                let t0 = Instant::now();
                let (next, stats) = sp
                    .try_repair_batch_recycling(&g, events, None, None)
                    .expect("churn schedule reweights are valid");
                let elapsed = t0.elapsed();
                sp = next;
                repair_total += elapsed.as_secs_f64();
                hist.record_duration(elapsed);
                batches += 1;
                events_applied += events.len();
                patched += stats.patched_columns;
            }
            let secs = repair_total.max(1e-12);
            let (p50, _, p99) = hist.quantiles();
            ChurnBenchEntry {
                batch_size,
                batches,
                events_applied,
                updates_per_sec: events_applied as f64 / secs,
                repair_seconds_p50: p50,
                repair_seconds_p99: p99,
                repair_seconds_max: hist.max_scaled(),
                patched_columns: patched,
                patched_columns_per_sec: patched as f64 / secs,
                fib_checksum: fib_checksum(&g, &sp),
                speedup_vs_batch1: 1.0,
            }
        })
        .collect();

    // Batching must never change where packets go.
    if let Some(first) = entries.first() {
        let expect = first.fib_checksum;
        for e in &entries {
            assert_eq!(
                e.fib_checksum, expect,
                "batch size {} diverged from batch size {}",
                e.batch_size, first.batch_size
            );
        }
    }
    if let Some(base_ups) = entries
        .iter()
        .find(|e| e.batch_size == 1)
        .map(|e| e.updates_per_sec)
    {
        for e in &mut entries {
            e.speedup_vs_batch1 = e.updates_per_sec / base_ups.max(1e-12);
        }
    }
    Ok(entries)
}

/// Schema version stamped into every `BENCH_churn.json`. Bump when a
/// field is renamed, removed, or changes meaning; adding fields is
/// compatible.
pub const SCHEMA_VERSION: u64 = 1;

/// Render entries as the `BENCH_churn.json` document.
///
/// Stable schema (version [`SCHEMA_VERSION`]):
///
/// ```json
/// {
///   "benchmark": "churn",
///   "schema_version": 1,
///   "topology": "<name>",
///   "seed": <u64>,
///   "k": <usize>,
///   "schedule_len": <usize>,
///   "entries": [ { one object per batch size, fields as in ChurnBenchEntry } ]
/// }
/// ```
pub fn render(
    topology: &str,
    k: usize,
    schedule_len: usize,
    seed: u64,
    entries: &[ChurnBenchEntry],
) -> String {
    let mut arr = JsonArray::new();
    for e in entries {
        arr = arr.push_raw(
            &JsonObject::new()
                .field_u64("batch_size", e.batch_size as u64)
                .field_u64("batches", e.batches as u64)
                .field_u64("events_applied", e.events_applied as u64)
                .field_f64("updates_per_sec", e.updates_per_sec)
                .field_f64("repair_seconds_p50", e.repair_seconds_p50)
                .field_f64("repair_seconds_p99", e.repair_seconds_p99)
                .field_f64("repair_seconds_max", e.repair_seconds_max)
                .field_u64("patched_columns", e.patched_columns as u64)
                .field_f64("patched_columns_per_sec", e.patched_columns_per_sec)
                .field_u64("fib_checksum", e.fib_checksum)
                .field_f64("speedup_vs_batch1", e.speedup_vs_batch1)
                .finish(),
        );
    }
    JsonObject::new()
        .field_str("benchmark", "churn")
        .field_u64("schema_version", SCHEMA_VERSION)
        .field_str("topology", topology)
        .field_u64("seed", seed)
        .field_u64("k", k as u64)
        .field_u64("schedule_len", schedule_len as u64)
        .field_raw("entries", &arr.finish())
        .finish()
}

/// Measure on `topology` and write `BENCH_churn.json` to `path`.
#[allow(clippy::too_many_arguments)]
pub fn write_churn_report(
    path: impl AsRef<Path>,
    topology: &str,
    k: usize,
    schedule_len: usize,
    batch_sizes: &[usize],
    seed: u64,
) -> Result<(), LabError> {
    let entries = measure(topology, k, schedule_len, batch_sizes, seed)?;
    let mut text = render(topology, k, schedule_len, seed, &entries);
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
    fn measured_entries_agree_across_batch_sizes() {
        let entries = measure("abilene", 3, 40, &[1, 4], 7).unwrap();
        assert_eq!(entries.len(), 2);
        let expect = entries[0].fib_checksum;
        for e in &entries {
            assert_eq!(e.fib_checksum, expect);
            assert!(e.batches > 0);
            assert!(e.events_applied > 0);
            assert!(e.updates_per_sec > 0.0);
            assert!(e.repair_seconds_p50 > 0.0);
            assert!(e.repair_seconds_p99 >= e.repair_seconds_p50);
            assert!(e.repair_seconds_p99 <= e.repair_seconds_max);
            assert!(e.patched_columns > 0);
        }
        // Every event lands in a timed batch regardless of the batch
        // size.
        assert_eq!(entries[0].events_applied, 40);
        assert_eq!(entries[1].events_applied, 40);
        assert!((entries[0].speedup_vs_batch1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn checksum_tracks_forwarding_state() {
        let topo = load_topology("abilene").unwrap();
        let g = topo.graph();
        let sp = Splicing::build(&g, &SplicingConfig::degree_based(2, 0.0, 3.0), 7);
        let a = fib_checksum(&g, &sp);
        assert_eq!(a, fib_checksum(&g, &sp));
        let repaired = sp.repair(
            &g,
            &splice_core::slices::RepairEvent::LinkFailure(splice_graph::EdgeId(0)),
        );
        assert_ne!(a, fib_checksum(&g, &repaired));
    }

    #[test]
    fn report_renders_and_writes() {
        let entries = measure("abilene", 2, 24, &[1, 8], 7).unwrap();
        let json = render("abilene", 2, 24, 7, &entries);
        assert!(json.contains(r#""benchmark":"churn""#));
        assert!(json.contains(r#""schema_version":1"#));
        assert!(json.contains(r#""updates_per_sec""#));
        assert!(json.contains(r#""fib_checksum""#));
        assert!(json.contains(r#""speedup_vs_batch1""#));

        let dir = std::env::temp_dir().join("splice-bench-churn-report");
        let path = dir.join("BENCH_churn.json");
        write_churn_report(&path, "abilene", 2, 24, &[1], 7).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains(r#""benchmark":"churn""#));
        assert!(back.ends_with('\n'));
        std::fs::remove_dir_all(&dir).ok();
    }
}
