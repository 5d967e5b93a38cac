//! Parallel Monte-Carlo trial execution.
//!
//! Trials are embarrassingly parallel and individually seeded, so results
//! are bit-identical regardless of thread count. Built on crossbeam's
//! scoped threads (the approved concurrency substrate); a work index is
//! handed out through an atomic counter so stragglers don't serialize the
//! tail.

use crate::telemetry::TrialTelemetry;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use splice_core::hash::splitmix64;

/// Derive the seed of trial `index` in RNG stream `stream` of experiment
/// `base_seed`.
///
/// All per-trial seeding funnels through this one mixer. The naive
/// alternatives collide: `base + index` makes adjacent trials of one
/// stream overlap a sibling stream based at `base ^ stream` (e.g. the
/// k-sweep streams), silently correlating "independent" samples. Chained
/// SplitMix64 avalanches each component, so distinct `(base, stream,
/// index)` triples give unrelated seeds.
pub fn derive_seed(base_seed: u64, stream: u64, index: u64) -> u64 {
    let mut h = splitmix64(base_seed);
    h = splitmix64(h ^ stream);
    splitmix64(h ^ index)
}

/// Run `trials` independent jobs in stream 0, each seeded via
/// [`derive_seed`], and collect results in trial order.
///
/// `job(trial_index, trial_seed)` must be pure given its seed.
pub fn run_trials<T, F>(trials: usize, base_seed: u64, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    run_trials_stream(trials, base_seed, 0, job)
}

/// [`run_trials`] in a named RNG stream: experiments that run several
/// trial batches from one experiment seed (one per `k`, per failure
/// probability, ...) give each batch its own `stream` so no two batches
/// share a trial seed.
pub fn run_trials_stream<T, F>(trials: usize, base_seed: u64, stream: u64, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    run_trials_stream_with_threads(trials, base_seed, stream, threads, job)
}

/// [`run_trials`] with an explicit worker count. Results are bit-identical
/// for any `threads >= 1` — the thread pool only changes who computes a
/// trial, never its seed or its slot.
pub fn run_trials_with_threads<T, F>(
    trials: usize,
    base_seed: u64,
    threads: usize,
    job: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    run_trials_stream_with_threads(trials, base_seed, 0, threads, job)
}

/// [`run_trials_stream`] with an explicit worker count.
pub fn run_trials_stream_with_threads<T, F>(
    trials: usize,
    base_seed: u64,
    stream: u64,
    threads: usize,
    job: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let threads = threads.max(1).min(trials.max(1));
    let mut results: Vec<Option<T>> = (0..trials).map(|_| None).collect();
    if trials == 0 {
        return Vec::new();
    }
    if threads <= 1 {
        return (0..trials)
            .map(|i| job(i, derive_seed(base_seed, stream, i as u64)))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<&mut Option<T>>> = results.iter_mut().map(Mutex::new).collect();
    // The scope joins every worker and re-raises a worker's panic.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let out = job(i, derive_seed(base_seed, stream, i as u64));
                **slots[i].lock().expect("each slot is locked once") = Some(out);
            });
        }
    });
    drop(slots);
    results
        .into_iter()
        .map(|r| r.expect("every trial filled"))
        .collect()
}

/// [`run_trials`] with optional instrumentation: per-trial wall-time
/// histogram samples, a completed-trials counter, and (when enabled) a
/// periodic stderr heartbeat with throughput.
///
/// With `None` this is exactly [`run_trials`]. With `Some` the job is
/// wrapped in timing only — seeding and slot order are untouched, so the
/// returned vector is bit-identical either way.
pub fn run_trials_instrumented<T, F>(
    trials: usize,
    base_seed: u64,
    telemetry: Option<&TrialTelemetry>,
    job: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let Some(tel) = telemetry else {
        return run_trials(trials, base_seed, job);
    };
    let started = Instant::now();
    let done = AtomicU64::new(0);
    let total = trials as u64;
    run_trials(trials, base_seed, move |i, seed| {
        let t0 = Instant::now();
        let out = job(i, seed);
        tel.trial_seconds.record_duration(t0.elapsed());
        tel.trials_total.inc();
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(every) = tel.heartbeat_every {
            if finished.is_multiple_of(every) || finished == total {
                let rate = finished as f64 / started.elapsed().as_secs_f64().max(1e-9);
                eprintln!("[splice-sim] {finished}/{total} trials ({rate:.1}/s)");
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_trial_order() {
        let out = run_trials(100, 7, |i, seed| (i, seed));
        for (i, &(idx, seed)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(seed, derive_seed(7, 0, i as u64));
        }
    }

    #[test]
    fn streams_do_not_share_trial_seeds() {
        // The regression this seeding exists to prevent: with `base +
        // index` trial seeds and `base ^ stream` stream bases, trial
        // seeds of nearby streams collide (e.g. stream 1 trial 0 ==
        // stream 0 trial 1). Distinct (stream, index) pairs must now give
        // distinct seeds.
        let mut seen = std::collections::HashSet::new();
        for stream in 0..16u64 {
            for index in 0..64u64 {
                assert!(
                    seen.insert(derive_seed(42, stream, index)),
                    "seed collision at stream {stream} index {index}"
                );
            }
        }
        // And the whole batch reseeds when the experiment seed moves.
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
        // Deterministic: same triple, same seed.
        assert_eq!(derive_seed(9, 3, 5), derive_seed(9, 3, 5));
    }

    #[test]
    fn stream_zero_is_the_default() {
        let plain = run_trials(32, 11, |i, seed| (i, seed));
        let stream0 = run_trials_stream(32, 11, 0, |i, seed| (i, seed));
        assert_eq!(plain, stream0);
        let stream1 = run_trials_stream(32, 11, 1, |i, seed| (i, seed));
        assert_ne!(plain, stream1, "streams must differ");
    }

    #[test]
    fn deterministic_across_runs() {
        let f = |i: usize, seed: u64| seed.wrapping_mul(i as u64 + 1) % 1013;
        let a = run_trials(256, 42, f);
        let b = run_trials(256, 42, f);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_and_one_trials() {
        assert!(run_trials(0, 1, |i, _| i).is_empty());
        assert_eq!(run_trials(1, 5, |_, s| s), vec![derive_seed(5, 0, 0)]);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let f = |i: usize, seed: u64| seed.rotate_left((i % 13) as u32);
        let one = run_trials_with_threads(128, 9, 1, f);
        for threads in [2, 4, 8] {
            assert_eq!(run_trials_with_threads(128, 9, threads, f), one);
        }
    }

    #[test]
    fn instrumentation_does_not_change_results() {
        use splice_telemetry::Registry;
        let f = |i: usize, seed: u64| seed.wrapping_mul(i as u64 | 1);
        let plain = run_trials_instrumented(64, 3, None, f);
        let reg = Registry::new();
        let tel = TrialTelemetry::register(&reg);
        let instrumented = run_trials_instrumented(64, 3, Some(&tel), f);
        assert_eq!(plain, instrumented);
        assert_eq!(tel.trials_total.get(), 64);
        assert_eq!(tel.trial_seconds.count(), 64);
    }

    #[test]
    fn actually_parallel_work_is_correct() {
        // Heavier jobs to exercise the scheduler.
        let out = run_trials(64, 0, |i, _| {
            let mut acc = 0u64;
            for j in 0..10_000u64 {
                acc = acc.wrapping_add(j ^ i as u64);
            }
            acc
        });
        let serial: Vec<u64> = (0..64)
            .map(|i| {
                let mut acc = 0u64;
                for j in 0..10_000u64 {
                    acc = acc.wrapping_add(j ^ i as u64);
                }
                acc
            })
            .collect();
        assert_eq!(out, serial);
    }
}
